// Package coherence implements the paper's protocol stack: a MESI
// write-invalidate directory protocol (the baseline) extended with
// Ghostwriter's approximate states GS and GI (Fig. 3), the scribble store
// flavour, the scribe d-distance comparator hook, the per-controller GI
// timeout, and the blocking directory with distributed L2 banks.
package coherence

import (
	"fmt"

	"ghostwriter/internal/mem"
	"ghostwriter/internal/stats"
)

// MsgType enumerates every coherence message exchanged between L1
// controllers and directories.
type MsgType uint8

// Requests (L1 → directory).
const (
	// GETS requests read permission (load miss).
	GETS MsgType = iota
	// GETX requests write permission with data (store miss).
	GETX
	// UPGRADE requests write permission for a block already held in S.
	UPGRADE
	// PUTS releases a Shared (or GS) copy on eviction.
	PUTS
	// PUTE releases a clean Exclusive copy on eviction.
	PUTE
	// PUTM writes back and releases a Modified copy on eviction.
	PUTM

	// Directory → L1.

	// Inv invalidates a shared copy.
	Inv
	// FwdGETS asks the owner to forward data to a read requestor and to
	// write the (possibly dirty) block back to the L2 home.
	FwdGETS
	// FwdGETX asks the owner to forward data to a write requestor and
	// invalidate itself.
	FwdGETX
	// DataS grants read permission with data (other sharers exist).
	DataS
	// DataE grants exclusive-clean permission with data (no other copies).
	DataE
	// DataM grants write permission with data.
	DataM
	// UpgAck grants write permission without data (successful UPGRADE).
	UpgAck
	// PutAck acknowledges a PUT; the evicting cache may free the frame.
	PutAck

	// L1 → directory transaction responses.

	// InvAck acknowledges an Inv.
	InvAck
	// Unblock tells the home directory the requestor has installed its
	// grant; the directory holds the block busy until it arrives (the
	// gem5 Ruby unblock discipline, which serializes same-block
	// transactions over the full request triangle).
	Unblock
	// DataToDir carries the owner's block back to the L2 home on a
	// FwdGETS downgrade.
	DataToDir

	// L2-capacity recall (directory → owner → directory).

	// RecallOwn asks the owner to surrender a block so the L2 home can
	// evict its line (inclusive-hierarchy recall).
	RecallOwn
	// RecallData carries the owner's block back on a recall.
	RecallData

	// L1 → L1.

	// DataC2C carries the owner's block directly to a requestor. Grant
	// says which state the requestor may install.
	DataC2C
)

// String returns the protocol-table name of the message type.
func (t MsgType) String() string {
	names := [...]string{
		"GETS", "GETX", "UPGRADE", "PUTS", "PUTE", "PUTM",
		"Inv", "FwdGETS", "FwdGETX", "DataS", "DataE", "DataM",
		"UpgAck", "PutAck", "InvAck", "Unblock", "DataToDir",
		"RecallOwn", "RecallData", "DataC2C",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Class buckets the message type the way Fig. 8 of the paper reports
// traffic: the three request classes, Data for anything carrying a block
// payload, and Other for the remaining control traffic.
func (t MsgType) Class() stats.MsgClass {
	switch t {
	case GETS:
		return stats.MsgGETS
	case GETX:
		return stats.MsgGETX
	case UPGRADE:
		return stats.MsgUPGRADE
	case DataS, DataE, DataM, DataC2C, DataToDir, RecallData, PUTM:
		return stats.MsgData
	default:
		return stats.MsgOther
	}
}

// CarriesData reports whether messages of this type include a block payload
// (which determines the message's size on the NoC).
func (t MsgType) CarriesData() bool {
	switch t {
	case DataS, DataE, DataM, DataC2C, DataToDir, RecallData, PUTM:
		return true
	}
	return false
}

// Msg is one coherence message.
type Msg struct {
	Type MsgType
	// Addr is the block-aligned address the message concerns.
	Addr mem.Addr
	// From is the sending L1's id, or the directory id for
	// directory-originated messages.
	From int
	// Requestor is the original requestor's L1 id on forwarded requests
	// and on grants (so a DataC2C receiver knows it is the target).
	Requestor int
	// Grant is the state a data grant confers (used by DataC2C).
	Grant GrantKind
	// Data is the block payload, if CarriesData.
	Data []byte
	// ToDir routes the message to the directory co-located at the
	// destination node rather than the L1.
	ToDir bool

	// next links pool free lists; never set while a message is in flight.
	next *Msg
}

// MsgPool recycles Msg records. A pool is only ever touched from the
// goroutine that runs its engine — the machine has one engine and gives it
// one pool — so the free list needs no locking.
// A nil *MsgPool is valid and degrades to plain allocation, which keeps
// test rigs that build controllers directly working unchanged.
//
// Ownership discipline: the receiver frees. A controller that finishes
// handling a message Puts it back — except messages it retains (a
// directory's in-progress request lives until finish(); an L1's deferred
// forward lives until the fill serves it), which are Put at the retention
// point's end.
type MsgPool struct {
	free *Msg
}

// msgChunk is the number of records a pool adds to an empty free list.
const msgChunk = 64

// Get returns a zeroed message (its Data buffer keeps prior capacity). An
// empty free list grows a chunk at a time, as the engine's event list does.
func (p *MsgPool) Get() *Msg {
	if p == nil {
		return &Msg{}
	}
	if p.free == nil {
		chunk := make([]Msg, msgChunk)
		for i := range chunk[:msgChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		p.free = &chunk[0]
	}
	m := p.free
	p.free = m.next
	m.next = nil
	return m
}

// Put recycles a handled message, zeroing its fields but retaining the
// Data buffer's capacity for the next data-carrying sender. Nil-safe in
// both the pool and the message.
func (p *MsgPool) Put(m *Msg) {
	if p == nil || m == nil {
		return
	}
	d := m.Data
	*m = Msg{}
	if d != nil {
		m.Data = d[:0]
	}
	m.next = p.free
	p.free = m
}

// GrantKind distinguishes what permission a cache-to-cache data transfer
// confers on the requestor.
type GrantKind uint8

// Grant kinds.
const (
	GrantNone GrantKind = iota
	GrantS              // install in Shared
	GrantM              // install in Modified
)
