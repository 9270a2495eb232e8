package tracedb

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"cuttlego/internal/faultinj"
)

// maxBufferedChunks bounds how many chunk extents of rows the recorder will
// hold in memory while the disk refuses writes before it gives up; past
// this the recorder errors out of Append and the caller must stop
// recording rather than grow without bound.
const maxBufferedChunks = 4

// A Recorder appends one row of register values per simulated cycle and
// lands them as column chunks. Rows must be contiguous: Append(c) requires
// c to be exactly one past the previous row (the first row may start
// anywhere — it captures the state at the cycle recording was enabled).
// It is not safe for concurrent use; the owning session serializes access.
type Recorder struct {
	dir  string
	fs   faultinj.FS
	meta Meta

	chunks   []ChunkInfo // chunks durably on disk and visible in the index
	cols     [][]uint64  // buffered rows, columnar, not yet closed as a chunk
	bufStart uint64      // cycle of the first buffered row
	onDisk   int         // buffered rows already landed as the tail chunk
	next     uint64      // next expected cycle; meaningful only when rows>0
	rows     uint64      // total recorded rows (disk + buffer)
}

// Create starts a fresh recording in dir, wiping any previous one.
func Create(dir string, fsys faultinj.FS, meta Meta) (*Recorder, error) {
	if meta.ChunkCycles == 0 {
		meta.ChunkCycles = DefaultChunkCycles
	}
	if meta.Version == 0 {
		meta.Version = formatVer
	}
	if len(meta.Signals) == 0 {
		return nil, fmt.Errorf("tracedb: recording needs at least one signal")
	}
	if err := fsys.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if err := atomicWrite(fsys, filepath.Join(dir, "meta.json"), metaBytes); err != nil {
		return nil, err
	}
	r := &Recorder{dir: dir, fs: fsys, meta: meta}
	return r, r.writeIndex()
}

// Resume reopens an existing recording for appending, adopting the longest
// valid contiguous prefix on disk (quarantining anything corrupt) and
// positioning the recorder after its last row.
func Resume(dir string, fsys faultinj.FS) (*Recorder, error) {
	meta, chunks, err := loadState(dir, fsys)
	if err != nil {
		return nil, err
	}
	// Readers verify chunks lazily, but a recorder must never append after
	// damaged bytes: validate every adopted chunk now, quarantine the first
	// bad one, and truncate the recording there. Resumption is rare (a
	// restarted daemon, an explicit re-enable), so the full scan is cheap
	// insurance.
	valid := chunks[:0]
	for _, c := range chunks {
		path := filepath.Join(dir, chunkFile(c.Start))
		data, rerr := fsys.ReadFile(path)
		if rerr != nil {
			break
		}
		v, perr := parseChunk(data, len(meta.Signals))
		if perr != nil || v.start != c.Start || uint64(v.count) < c.Count {
			_ = quarantine(fsys, path)
			break
		}
		valid = append(valid, c)
	}
	// Chunk files beyond the adopted prefix are unreachable and would only
	// confuse a future index rebuild; drop them.
	for _, c := range chunks[len(valid):] {
		_ = fsys.Remove(filepath.Join(dir, chunkFile(c.Start)))
	}
	chunks = valid
	r := &Recorder{dir: dir, fs: fsys, meta: meta, chunks: chunks}
	for _, c := range chunks {
		r.rows += c.Count
	}
	if len(chunks) > 0 {
		last := chunks[len(chunks)-1]
		r.next = last.Start + last.Count
		r.bufStart = r.next
	}
	// The scan may have quarantined chunks or dropped a stale tail; rewrite
	// the index so disk state matches what we adopted.
	if err := r.writeIndex(); err != nil {
		return nil, err
	}
	return r, nil
}

// Meta returns the recording schema.
func (r *Recorder) Meta() Meta { return r.meta }

// Rows returns the total recorded row count (including buffered rows).
func (r *Recorder) Rows() uint64 { return r.rows }

// LastCycle returns the cycle of the most recent row.
func (r *Recorder) LastCycle() (uint64, bool) {
	if r.rows == 0 {
		return 0, false
	}
	return r.next - 1, true
}

// FirstCycle returns the cycle of the first row.
func (r *Recorder) FirstCycle() (uint64, bool) {
	if r.rows == 0 {
		return 0, false
	}
	if len(r.chunks) > 0 {
		return r.chunks[0].Start, true
	}
	return r.bufStart, true
}

// Append records the register values observed at cycle. vals must follow
// the schema's signal order; the slice is copied. A non-contiguous cycle
// returns ErrGap and records nothing.
func (r *Recorder) Append(cycle uint64, vals []uint64) error {
	if len(vals) != len(r.meta.Signals) {
		return fmt.Errorf("tracedb: row has %d values, schema has %d signals", len(vals), len(r.meta.Signals))
	}
	if r.rows > 0 && cycle != r.next {
		return fmt.Errorf("%w: cycle %d after %d", ErrGap, cycle, r.next-1)
	}
	if r.cols == nil {
		r.cols = make([][]uint64, len(r.meta.Signals))
	}
	if len(r.cols[0]) == 0 {
		r.bufStart = cycle
		r.onDisk = 0
	}
	for i, v := range vals {
		r.cols[i] = append(r.cols[i], v)
	}
	r.next = cycle + 1
	r.rows++
	buffered := uint64(len(r.cols[0]))
	if buffered >= r.meta.ChunkCycles && buffered%r.meta.ChunkCycles == 0 {
		// Chunk boundary: close the buffer as one chunk. A failed write keeps
		// the rows buffered and retries at the next boundary; a disk that
		// stays dead eventually exceeds the memory bound and Append errors.
		if err := r.closeBuffer(); err != nil {
			if buffered >= maxBufferedChunks*r.meta.ChunkCycles {
				return fmt.Errorf("tracedb: %d rows buffered and the store keeps failing: %w", buffered, err)
			}
		}
	}
	return nil
}

// closeBuffer lands every buffered row as one chunk and starts a new
// buffer. Chunks therefore normally hold ChunkCycles rows but may be
// shorter (a flushed tail) or longer (rows accumulated across a failed
// write) — readers only require contiguity, not uniform extent.
func (r *Recorder) closeBuffer() error {
	count := len(r.cols[0])
	if count == 0 {
		return nil
	}
	info, err := r.writeTail()
	if err != nil {
		return err
	}
	r.chunks = append(r.chunks, info)
	for i := range r.cols {
		r.cols[i] = r.cols[i][:0]
	}
	r.bufStart = r.next
	r.onDisk = 0
	return r.writeIndex()
}

// writeTail writes the current buffer as chunk file c<bufStart>.ktrc
// (overwriting any shorter version of itself from an earlier flush).
func (r *Recorder) writeTail() (ChunkInfo, error) {
	count := len(r.cols[0])
	data, sums := encodeChunk(r.bufStart, count, r.cols)
	if err := atomicWrite(r.fs, filepath.Join(r.dir, chunkFile(r.bufStart)), data); err != nil {
		return ChunkInfo{}, err
	}
	return ChunkInfo{Start: r.bufStart, Count: uint64(count), Sums: sums}, nil
}

func (r *Recorder) writeIndex() error {
	return atomicWrite(r.fs, filepath.Join(r.dir, "index.ktix"), encodeIndex(len(r.meta.Signals), r.chunks))
}

// Flush makes every recorded row visible to readers: the buffered tail is
// written as a (possibly partial) chunk and the index is rewritten to
// include it. The buffer keeps accumulating afterwards — the tail file is
// simply rewritten larger at the next flush or chunk boundary.
func (r *Recorder) Flush() error {
	if r.cols == nil || len(r.cols[0]) == 0 {
		return nil
	}
	if len(r.cols[0]) == r.onDisk {
		return nil
	}
	info, err := r.writeTail()
	if err != nil {
		return err
	}
	// The tail chunk joins the index without closing the buffer; drop any
	// previous (shorter) tail entry for the same start first.
	chunks := r.chunks
	if n := len(chunks); n > 0 && chunks[n-1].Start == info.Start {
		chunks = chunks[:n-1]
	}
	r.chunks = append(chunks, info)
	if err := r.writeIndex(); err != nil {
		return err
	}
	r.onDisk = len(r.cols[0])
	// Leave r.chunks holding the tail entry but remember it is still open:
	// closeBuffer replaces it when the buffer closes for real.
	r.tailOpen()
	return nil
}

// tailOpen marks that the last index entry is the still-growing buffer, so
// closeBuffer must replace rather than append it.
func (r *Recorder) tailOpen() {
	// Bookkeeping is positional: closeBuffer appends a chunk for bufStart;
	// if the index already ends with an entry for bufStart (a flushed tail)
	// it must be dropped first. Handled inline here by normalizing chunks so
	// closeBuffer can stay append-only.
	if n := len(r.chunks); n > 0 && len(r.cols) > 0 && len(r.cols[0]) > 0 && r.chunks[n-1].Start == r.bufStart {
		r.chunks = r.chunks[:n-1]
	}
}

// Truncate drops every row after cycle, so a session that rewound (restore
// or reverse) re-records the replayed cycles over a consistent prefix.
// Truncating before the first row resets the recording to empty.
func (r *Recorder) Truncate(cycle uint64) error {
	if r.rows == 0 {
		return nil
	}
	if cycle >= r.next-1 {
		return nil
	}
	first, _ := r.FirstCycle()
	if cycle < first {
		// Rewound past the start of the recording: empty it.
		for _, c := range r.chunks {
			_ = r.fs.Remove(filepath.Join(r.dir, chunkFile(c.Start)))
		}
		if len(r.cols) > 0 && len(r.cols[0]) > 0 {
			_ = r.fs.Remove(filepath.Join(r.dir, chunkFile(r.bufStart)))
		}
		r.chunks = nil
		r.cols = nil
		r.rows = 0
		r.next = 0
		r.onDisk = 0
		return r.writeIndex()
	}
	if len(r.cols) > 0 && len(r.cols[0]) > 0 && cycle >= r.bufStart {
		// The cut lands inside the buffer: shorten it in place.
		keep := int(cycle - r.bufStart + 1)
		for i := range r.cols {
			r.cols[i] = r.cols[i][:keep]
		}
		r.rows -= r.next - cycle - 1
		r.next = cycle + 1
		if r.onDisk > keep {
			r.onDisk = 0 // tail file on disk is now longer than the buffer; rewrite on next flush
			return r.Flush()
		}
		return nil
	}
	// The cut lands inside a closed chunk: reload that chunk's rows into the
	// buffer, drop it and everything after it from disk, and continue
	// recording from the cut.
	idx := -1
	for i, c := range r.chunks {
		if cycle >= c.Start && cycle < c.Start+c.Count {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("tracedb: truncate cycle %d not covered by the recording", cycle)
	}
	cut := r.chunks[idx]
	path := filepath.Join(r.dir, chunkFile(cut.Start))
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return err
	}
	start, cols, err := decodeChunk(data, len(r.meta.Signals))
	if err != nil || start != cut.Start {
		_ = quarantine(r.fs, path)
		return fmt.Errorf("tracedb: truncate into damaged chunk c%d: %w", cut.Start, err)
	}
	// Remove the buffered tail file (if flushed) and every chunk at or after
	// the cut point.
	if len(r.cols) > 0 && len(r.cols[0]) > 0 {
		_ = r.fs.Remove(filepath.Join(r.dir, chunkFile(r.bufStart)))
	}
	for _, c := range r.chunks[idx:] {
		_ = r.fs.Remove(filepath.Join(r.dir, chunkFile(c.Start)))
	}
	keep := int(cycle - cut.Start + 1)
	for i := range cols {
		cols[i] = cols[i][:keep]
	}
	r.chunks = r.chunks[:idx]
	r.cols = cols
	r.bufStart = cut.Start
	r.onDisk = 0
	r.next = cycle + 1
	r.rows = cycle - first + 1
	return r.Flush()
}

// Close flushes and releases the recorder.
func (r *Recorder) Close() error {
	return r.Flush()
}
