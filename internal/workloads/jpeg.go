package workloads

import (
	"math"

	ghostwriter "ghostwriter"
)

// JPEG is the AxBench jpeg benchmark: a DCT + quantization image
// compression pipeline (encode to quantized coefficients, decode back to
// pixels), run over several frames at slightly varying quantizer scales —
// the quality-sweep loop of an encoder. As §4.2 of the paper describes,
// jpeg mixes migratory and producer-consumer sharing across multiple shared
// structures, and benefits from both GS and GI:
//
//   - tiles are interleaved across threads and the per-tile coefficient
//     records are packed at a 68-byte stride (a 4-byte header plus 64
//     coefficient bytes, like a variable-length bitstream), so adjacent
//     tiles' records falsely share blocks (migratory, GS);
//   - the decode pass assigns each tile to a different thread than its
//     encoder, so coefficients flow producer→consumer, and re-encoding the
//     next frame writes into invalidated records (GI);
//   - quantized DCT coefficients are small and change little between
//     frames, exactly the value similarity the scribe comparator exploits.
type JPEG struct {
	w, h   int
	pixels []uint8
	ddist  int

	pixAddr   ghostwriter.Addr
	coeffAddr ghostwriter.Addr // packed records: 4B header + 64 coeff bytes
	outAddr   ghostwriter.Addr // reconstructed image
	golden    []float64
}

// Pipeline shape.
const (
	jpegFrames      = 3
	jpegRecordSize  = 68  // 4-byte header + 64 quantized coefficients
	jpegTileCompute = 300 // FLOP model for an 8x8 DCT or IDCT
)

// jpegQScales are the per-frame quantizer scale percentages of the quality
// sweep.
var jpegQScales = [jpegFrames]int{100, 95, 105}

// jpegQuant is the standard JPEG luminance quantization table.
var jpegQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// cosT[x][u] = cos((2x+1)·u·π/16), the shared DCT basis.
var cosT = func() [8][8]float64 {
	var t [8][8]float64
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			t[x][u] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	return t
}()

// NewJPEG builds the app. The paper compresses a 512x512 RGB image; scale 1
// uses a 48x48 synthetic grayscale image.
func NewJPEG(scale int) *JPEG {
	j := &JPEG{w: 48, h: 48 * scale, ddist: -1}
	r := rng(53)
	j.pixels = make([]uint8, j.w*j.h)
	for y := 0; y < j.h; y++ {
		for x := 0; x < j.w; x++ {
			v := 128 + 90*math.Sin(float64(x)/7)*math.Cos(float64(y)/9) + float64(r.Intn(17)-8)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			j.pixels[y*j.w+x] = uint8(v)
		}
	}
	j.golden = j.goldenOutput()
	return j
}

// tiles returns the tile grid dimensions.
func (j *JPEG) tiles() (tw, th int) { return j.w / 8, j.h / 8 }

// quantFor returns the frame's scaled quantizer for coefficient idx.
func quantFor(frame, idx int) int {
	q := jpegQuant[idx] * jpegQScales[frame] / 100
	if q < 1 {
		q = 1
	}
	return q
}

// fdct computes the quantized coefficients of one 8x8 pixel tile.
func fdct(pix *[64]float64, frame int, out *[64]int8) {
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var sum float64
			for x := 0; x < 8; x++ {
				for y := 0; y < 8; y++ {
					sum += (pix[y*8+x] - 128) * cosT[x][u] * cosT[y][v]
				}
			}
			cu, cv := 1.0, 1.0
			if u == 0 {
				cu = math.Sqrt2 / 2
			}
			if v == 0 {
				cv = math.Sqrt2 / 2
			}
			coeff := 0.25 * cu * cv * sum
			q := math.Round(coeff / float64(quantFor(frame, v*8+u)))
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			out[v*8+u] = int8(q)
		}
	}
}

// idct reconstructs one 8x8 pixel tile from quantized coefficients.
func idct(coeff *[64]int8, frame int, out *[64]uint8) {
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var sum float64
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					cu, cv := 1.0, 1.0
					if u == 0 {
						cu = math.Sqrt2 / 2
					}
					if v == 0 {
						cv = math.Sqrt2 / 2
					}
					deq := float64(coeff[v*8+u]) * float64(quantFor(frame, v*8+u))
					sum += cu * cv * deq * cosT[x][u] * cosT[y][v]
				}
			}
			p := math.Round(0.25*sum + 128)
			if p < 0 {
				p = 0
			}
			if p > 255 {
				p = 255
			}
			out[y*8+x] = uint8(p)
		}
	}
}

// goldenOutput runs the identical pipeline host-side: the reconstruction of
// the final frame.
func (j *JPEG) goldenOutput() []float64 {
	tw, th := j.tiles()
	out := make([]float64, j.w*j.h)
	frame := jpegFrames - 1
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; tx++ {
			var pix [64]float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					pix[y*8+x] = float64(j.pixels[(ty*8+y)*j.w+tx*8+x])
				}
			}
			var coeff [64]int8
			fdct(&pix, frame, &coeff)
			var rec [64]uint8
			idct(&coeff, frame, &rec)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					out[(ty*8+y)*j.w+tx*8+x] = float64(rec[y*8+x])
				}
			}
		}
	}
	return out
}

// SetDDist implements App.
func (j *JPEG) SetDDist(d int) { j.ddist = d }

// Prepare implements App.
func (j *JPEG) Prepare(sys *ghostwriter.System) {
	tw, th := j.tiles()
	j.pixAddr = sys.Alloc(len(j.pixels), 64)
	sys.Preload(j.pixAddr, j.pixels)
	j.coeffAddr = sys.Alloc(jpegRecordSize*tw*th, 4)
	j.outAddr = sys.Alloc(j.w*j.h, 4)
}

// Kernel implements App.
func (j *JPEG) Kernel(t *ghostwriter.Thread) {
	t.SetApproxDist(j.ddist)
	tw, th := j.tiles()
	ntiles := tw * th
	for frame := 0; frame < jpegFrames; frame++ {
		// Encode: tile k belongs to thread k mod N (interleaved).
		for k := t.ID(); k < ntiles; k += t.N() {
			tx, ty := k%tw, k/tw
			var pix [64]float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					pix[y*8+x] = float64(t.Load8(j.pixAddr +
						ghostwriter.Addr((ty*8+y)*j.w+tx*8+x)))
				}
			}
			t.Compute(jpegTileCompute)
			var coeff [64]int8
			fdct(&pix, frame, &coeff)
			rec := j.coeffAddr + ghostwriter.Addr(jpegRecordSize*k)
			// The record header (tile id + frame) is control data: never
			// annotated for approximation (§3.1).
			t.Store32(rec, uint32(k)<<8|uint32(frame))
			for idx := 0; idx < 64; idx++ {
				t.Scribble8(rec+4+ghostwriter.Addr(idx), uint8(coeff[idx]))
			}
		}
		t.Barrier()
		// Decode: tile k is consumed by the *next* thread in the ring, so
		// coefficients always cross caches (producer-consumer). As in
		// AxBench, only the encoder is approximate: the decoder — the
		// quality-evaluation side — runs precisely (conventional stores),
		// reading whatever coefficient version its cache coherently or
		// stalely holds, and dequantizing with the quantizer named in the
		// record header it sees (so a stale record still decodes
		// self-consistently).
		for k := 0; k < ntiles; k++ {
			if k%t.N() != (t.ID()+1)%t.N() {
				continue
			}
			tx, ty := k%tw, k/tw
			rec := j.coeffAddr + ghostwriter.Addr(jpegRecordSize*k)
			seenFrame := int(t.Load32(rec) & 0xFF)
			if seenFrame >= jpegFrames {
				seenFrame = frame
			}
			var coeff [64]int8
			for idx := 0; idx < 64; idx++ {
				coeff[idx] = int8(t.Load8(rec + 4 + ghostwriter.Addr(idx)))
			}
			t.Compute(jpegTileCompute)
			var recPix [64]uint8
			idct(&coeff, seenFrame, &recPix)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					t.Store8(j.outAddr+ghostwriter.Addr((ty*8+y)*j.w+tx*8+x),
						recPix[y*8+x])
				}
			}
		}
		t.Barrier()
	}
}

// Output implements App.
func (j *JPEG) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, j.w*j.h)
	for i := range out {
		out[i] = float64(uint8(sys.ReadCoherent(j.outAddr+ghostwriter.Addr(i), 1)))
	}
	return out
}

// Golden implements App.
func (j *JPEG) Golden() []float64 { return j.golden }
