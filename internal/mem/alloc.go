package mem

import "fmt"

// Allocator is a bump allocator over the simulated address space. Workloads
// use it the way the paper's benchmarks use malloc: ordinary allocations are
// packed (so false sharing can occur naturally, as with linear_regression's
// 52-byte lreg_args struct), while AllocPadded mirrors the compiler padding
// Ghostwriter applies to approximate regions so that a cache block never
// mixes approximate and precise data.
type Allocator struct {
	next      Addr
	blockSize Addr
}

// NewAllocator returns an allocator that starts handing out addresses at
// base and pads approximate regions to blockSize boundaries. blockSize must
// be a power of two.
func NewAllocator(base Addr, blockSize int) *Allocator {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("mem: block size %d is not a power of two", blockSize))
	}
	return &Allocator{next: base, blockSize: Addr(blockSize)}
}

// Alloc reserves size bytes aligned to align (a power of two; 0 or 1 means
// unaligned) and returns the base address.
func (al *Allocator) Alloc(size int, align int) Addr {
	if size < 0 {
		panic("mem: negative allocation")
	}
	if align > 1 {
		if align&(align-1) != 0 {
			panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
		}
		mask := Addr(align - 1)
		al.next = (al.next + mask) &^ mask
	}
	a := al.next
	al.next += Addr(size)
	return a
}

// AllocPadded reserves size bytes starting on a cache block boundary and
// pads the tail to the next block boundary, ensuring no other allocation
// shares a block with this one. This is the compiler-inserted delineation of
// approximate data described in §3.1 of the paper.
func (al *Allocator) AllocPadded(size int) Addr {
	a := al.Alloc(size, int(al.blockSize))
	rem := (Addr(size)) & (al.blockSize - 1)
	if rem != 0 {
		al.next += al.blockSize - rem
	}
	return a
}
