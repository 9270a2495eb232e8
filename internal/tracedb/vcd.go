package tracedb

import (
	"fmt"
	"io"

	"cuttlego/internal/bits"
	"cuttlego/internal/vcd"
)

// WriteVCD re-emits the recorded window [from, to] (inclusive, clamped to
// the recording) as a VCD dump of its signals. The bytes are identical to
// what a vcd.Writer sampling the engine over the same cycles produces: the first emitted
// cycle becomes the $dumpvars baseline and later cycles appear only when a
// signal changes.
func (r *Reader) WriteVCD(w io.Writer, from, to uint64) error {
	first, last, ok := r.Bounds()
	if !ok {
		return fmt.Errorf("tracedb: recording is empty")
	}
	if from < first {
		from = first
	}
	if to > last {
		to = last
	}
	if from > to {
		return fmt.Errorf("tracedb: window %d..%d is outside the recording (%d..%d)", from, to, first, last)
	}
	sigs := make([]vcd.Signal, len(r.meta.Signals))
	for i, s := range r.meta.Signals {
		sigs[i] = vcd.Signal{Name: s.Name, Width: s.Width}
	}
	sw := vcd.NewStream(w, r.meta.Design, sigs)
	for cyc := from; cyc <= to; cyc++ {
		i, _ := r.chunkAt(cyc)
		v, err := r.loadChunk(i)
		if err != nil {
			return err
		}
		off := cyc - r.chunks[i].Start
		if err := sw.Sample(cyc, func(s int) bits.Bits {
			return bits.New(r.meta.Signals[s].Width, v.col(s)[off])
		}); err != nil {
			return err
		}
	}
	return nil
}
