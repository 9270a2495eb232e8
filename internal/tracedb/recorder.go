package tracedb

import (
	"cmp"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

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
//
// Writes are group-committed. A chunk boundary lands only the chunk file
// (temp + rename, no fsync). Flush is the one commit point: it lands the
// buffered tail, fsyncs every chunk file landed since the last commit,
// then the directory, and only then atomically replaces index.ktix. So the
// durable index never credits a row whose chunk is not durable, and a
// crash loses exactly the rows recorded after the last Flush.
type Recorder struct {
	dir  string
	fs   faultinj.FS
	meta Meta
	nsig int

	chunks   []ChunkInfo // closed chunks, their files landed (synced or not)
	buf      []uint64    // buffered rows, row-major, not yet closed as a chunk
	bufRows  int         // rows in buf
	bufStart uint64      // cycle of the first buffered row
	tail     ChunkInfo   // index entry of the buffered rows landed as the tail file; Count 0 if none
	next     uint64      // next expected cycle; meaningful only when rows>0
	rows     uint64      // total recorded rows (disk + buffer)

	unsynced   []uint64     // starts of chunk files landed since the last commit
	durableEnd uint64       // one past the last row the durable index credits; 0 if none
	dirty      bool         // chunk files or extents changed since the last commit
	enc        chunkEncoder // chunk encoding buffers, reused
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
	// Both files land by temp + fsync + rename, and one directory sync
	// makes both names durable. A crash before it leaves no meta.json (no
	// recording) or a meta.json without an index, which opens as an empty
	// recording.
	r := &Recorder{dir: dir, fs: fsys, meta: meta, nsig: meta.Columns()}
	if err := syncedRename(fsys, filepath.Join(dir, "meta.json"), metaBytes); err != nil {
		return nil, err
	}
	if err := syncedRename(fsys, filepath.Join(dir, "index.ktix"), encodeIndex(r.nsig, nil)); err != nil {
		return nil, err
	}
	return r, fsys.Sync(dir)
}

// Resume reopens an existing recording for appending, adopting the longest
// valid contiguous prefix the index credits (quarantining anything
// corrupt) and positioning the recorder after its last row.
func Resume(dir string, fsys faultinj.FS) (*Recorder, error) {
	meta, chunks, err := loadState(dir, fsys)
	if err != nil {
		return nil, err
	}
	r := &Recorder{dir: dir, fs: fsys, meta: meta, nsig: meta.Columns()}
	// Readers verify chunks lazily, but a recorder must never append after
	// damaged bytes: validate every adopted chunk now, quarantine the first
	// bad one, and truncate the recording there. Resumption is rare (a
	// restarted daemon, an explicit re-enable), so the full scan is cheap
	// insurance.
	for _, c := range chunks {
		path := r.chunkPath(c.Start)
		data, rerr := fsys.ReadFile(path)
		if rerr != nil {
			break
		}
		v, perr := parseChunk(data, r.nsig)
		if perr != nil || v.start != c.Start || uint64(v.count) < c.Count {
			_ = quarantine(fsys, path)
			break
		}
		if uint64(v.count) > c.Count {
			// Rows landed after the last commit into a file the index
			// credits: cut the file back to the credited rows, so a later
			// index rebuild cannot adopt rows the recording no longer holds.
			data, _ := r.enc.encode(c.Start, v.appendRows(nil, int(c.Count)), r.nsig, len(r.meta.Signals))
			if err := r.land(c.Start, data, true); err != nil {
				return nil, err
			}
		}
		r.chunks = append(r.chunks, c)
		r.rows += c.Count
	}
	// Every chunk file the adopted prefix does not credit — past a damaged
	// chunk, or landed after the last commit of an abandoned timeline — is
	// unreachable; remove it so a later index rebuild never adopts it.
	starts, err := chunkStarts(dir, fsys)
	if err != nil {
		return nil, err
	}
	for _, start := range starts {
		if _, ok := slices.BinarySearchFunc(r.chunks, start, func(c ChunkInfo, s uint64) int { return cmp.Compare(c.Start, s) }); !ok {
			_ = fsys.Remove(r.chunkPath(start))
		}
	}
	if n := len(r.chunks); n > 0 {
		r.next = r.chunks[n-1].Start + r.chunks[n-1].Count
		r.bufStart = r.next
	}
	// The scan may have quarantined chunks or dropped a stale tail; rewrite
	// the index so disk state matches what we adopted.
	if err := r.writeIndex(r.chunks); err != nil {
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

// Append records the row observed at cycle: the register values in the
// schema's signal order, then its fired-rule words when the schema lists
// rules (Meta.Columns). The slice is copied. A non-contiguous cycle
// returns ErrGap and records nothing.
func (r *Recorder) Append(cycle uint64, vals []uint64) error {
	if len(vals) != r.nsig {
		return fmt.Errorf("tracedb: row has %d values, schema has %d columns", len(vals), r.nsig)
	}
	if r.rows > 0 && cycle != r.next {
		return fmt.Errorf("%w: cycle %d after %d", ErrGap, cycle, r.next-1)
	}
	if r.bufRows == 0 {
		r.bufStart = cycle
	}
	r.buf = append(r.buf, vals...)
	r.bufRows++
	r.next = cycle + 1
	r.rows++
	if n := uint64(r.bufRows); n%r.meta.ChunkCycles == 0 {
		// Chunk boundary: close the buffer as one chunk. A failed write keeps
		// the rows buffered and retries at the next boundary; a disk that
		// stays dead eventually exceeds the memory bound and Append errors.
		if err := r.closeBuffer(); err != nil && n >= maxBufferedChunks*r.meta.ChunkCycles {
			return fmt.Errorf("tracedb: %d rows buffered and the store keeps failing: %w", n, err)
		}
	}
	return nil
}

// closeBuffer lands every buffered row as one chunk and starts a new
// buffer. Chunks therefore normally hold ChunkCycles rows but may be
// shorter (a flushed tail) or longer (rows accumulated across a failed
// write) — readers only require contiguity, not uniform extent.
func (r *Recorder) closeBuffer() error {
	info, err := r.writeBuffer()
	if err != nil {
		return err
	}
	r.chunks = append(r.chunks, info)
	r.buf, r.bufRows = r.buf[:0], 0
	r.bufStart, r.tail = r.next, ChunkInfo{}
	return nil
}

// writeBuffer lands the buffered rows as chunk file c<bufStart>, replacing
// any shorter version of it from an earlier flush — one the durable index
// credits when it ends past bufStart.
func (r *Recorder) writeBuffer() (ChunkInfo, error) {
	data, sums := r.enc.encode(r.bufStart, r.buf, r.nsig, len(r.meta.Signals))
	if err := r.land(r.bufStart, data, r.bufStart < r.durableEnd); err != nil {
		return ChunkInfo{}, err
	}
	r.dirty = true
	return ChunkInfo{Start: r.bufStart, Count: uint64(r.bufRows), Sums: sums}, nil
}

// land writes chunk file c<start> by temp + rename. With sync, the temp
// file is fsynced before the rename: that is required when the durable
// index credits the file being replaced, so a crash leaves the old bytes
// or the new, both whole. Otherwise the file waits, unsynced, for the next
// commit, which the index cannot credit it before.
func (r *Recorder) land(start uint64, data []byte, sync bool) error {
	path := r.chunkPath(start)
	tmp := path + ".tmp"
	if err := r.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if sync {
		if err := r.fs.Sync(tmp); err != nil {
			return err
		}
	}
	if err := r.fs.Rename(tmp, path); err != nil {
		return err
	}
	if !sync {
		r.unsynced = append(r.unsynced, start)
	}
	return nil
}

// remove deletes chunk file c<start>, which nothing credits any more. A
// file that is already gone, or stays, is harmless: no index credits it,
// and Resume deletes what is left.
func (r *Recorder) remove(start uint64) {
	_ = r.fs.Remove(r.chunkPath(start))
	r.unsynced = slices.DeleteFunc(r.unsynced, func(s uint64) bool { return s == start })
}

func (r *Recorder) chunkPath(start uint64) string { return filepath.Join(r.dir, chunkFile(start)) }

// commit makes entries — the closed chunks, plus the landed tail when one
// is credited — the durable index: it fsyncs every chunk file landed since
// the last commit, then the directory, then atomically replaces
// index.ktix. On error the previous index stays in place.
func (r *Recorder) commit(entries []ChunkInfo) error {
	for _, start := range r.unsynced {
		if err := r.fs.Sync(r.chunkPath(start)); err != nil {
			return err
		}
	}
	if err := r.fs.Sync(r.dir); err != nil {
		return err
	}
	if err := r.writeIndex(entries); err != nil {
		return err
	}
	r.unsynced = r.unsynced[:0]
	r.dirty = false
	return nil
}

// writeIndex atomically replaces index.ktix with entries, whose chunk
// files must already be durable.
func (r *Recorder) writeIndex(entries []ChunkInfo) error {
	if err := atomicWrite(r.fs, filepath.Join(r.dir, "index.ktix"), encodeIndex(r.nsig, entries)); err != nil {
		return err
	}
	r.durableEnd = 0
	if n := len(entries); n > 0 {
		r.durableEnd = entries[n-1].Start + entries[n-1].Count
	}
	return nil
}

// Flush commits every recorded row: the buffered tail is landed as a
// (possibly partial) chunk, and the chunks landed since the last commit
// are made durable and indexed (see Recorder). The buffer keeps
// accumulating afterwards — the tail file is simply rewritten larger at
// the next flush or chunk boundary.
func (r *Recorder) Flush() error {
	if uint64(r.bufRows) > r.tail.Count {
		info, err := r.writeBuffer()
		if err != nil {
			return err
		}
		r.tail = info
	}
	if !r.dirty {
		return nil
	}
	entries := r.chunks
	if r.bufRows > 0 {
		entries = append(slices.Clip(entries), r.tail)
	}
	return r.commit(entries)
}

// Truncate drops every row after cycle, so a session that rewound (restore
// or reverse) re-records the replayed cycles over a consistent prefix.
// Truncating before the first row resets the recording to empty. Buffered
// rows kept by the cut are committed at the next Flush; if the durable
// index credits a dropped row, Truncate commits the cut recording — kept
// buffered rows included — before it deletes any file (see commitCut).
func (r *Recorder) Truncate(cycle uint64) error {
	if r.rows == 0 || cycle >= r.next-1 {
		return nil
	}
	first, _ := r.FirstCycle()
	var drop []uint64 // chunk files to delete once the index no longer credits them
	switch {
	case cycle < first:
		// Rewound past the start of the recording: empty it.
		for _, c := range r.chunks {
			drop = append(drop, c.Start)
		}
		drop = append(drop, r.bufStart)
		r.chunks = r.chunks[:0]
		r.buf, r.bufRows, r.tail = r.buf[:0], 0, ChunkInfo{}
		r.rows, r.next = 0, 0
	case r.bufRows > 0 && cycle >= r.bufStart:
		// The cut lands inside the buffer: shorten it in place.
		keep := int(cycle - r.bufStart + 1)
		r.buf, r.bufRows = r.buf[:keep*r.nsig], keep
		if r.tail.Count > uint64(keep) {
			r.tail = ChunkInfo{} // the tail file holds dropped rows; rewrite it at the next flush
		}
		r.rows -= r.next - cycle - 1
		r.next = cycle + 1
	default:
		// The cut lands inside a closed chunk: reload that chunk's rows into
		// the buffer and drop the buffered tail and every chunk after it.
		idx := sort.Search(len(r.chunks), func(i int) bool { return r.chunks[i].Start+r.chunks[i].Count > cycle })
		if idx == len(r.chunks) || r.chunks[idx].Start > cycle {
			return fmt.Errorf("tracedb: truncate cycle %d not covered by the recording", cycle)
		}
		cut := r.chunks[idx]
		path := r.chunkPath(cut.Start)
		data, err := r.fs.ReadFile(path)
		if err != nil {
			return err
		}
		v, err := parseChunk(data, r.nsig)
		if err == nil && (v.start != cut.Start || uint64(v.count) < cut.Count) {
			err = corruptf("chunk c%d does not hold its %d indexed rows", cut.Start, cut.Count)
		}
		if err != nil {
			// Nothing from the damaged chunk on is reachable on a gap-free
			// axis: the recording now ends before it, so the next commit
			// neither credits nor fsyncs the renamed-aside file. Later files
			// stay until no durable index credits them; Resume deletes them.
			_ = quarantine(r.fs, path)
			r.chunks = r.chunks[:idx]
			r.buf, r.bufRows, r.tail = r.buf[:0], 0, ChunkInfo{}
			r.bufStart, r.next = cut.Start, cut.Start
			r.rows = cut.Start - first
			r.unsynced = slices.DeleteFunc(r.unsynced, func(s uint64) bool { return s >= cut.Start })
			r.dirty = true
			return fmt.Errorf("tracedb: truncate into damaged chunk c%d: %w", cut.Start, err)
		}
		drop = append(drop, r.bufStart)
		for _, c := range r.chunks[idx+1:] {
			drop = append(drop, c.Start)
		}
		keep := int(cycle - cut.Start + 1)
		r.buf, r.bufRows = v.appendRows(r.buf[:0], keep), keep
		r.chunks = r.chunks[:idx]
		r.bufStart, r.tail = cut.Start, ChunkInfo{}
		r.next = cycle + 1
		r.rows = cycle - first + 1
	}
	r.dirty = true
	// Files about to be deleted need no fsync.
	r.unsynced = slices.DeleteFunc(r.unsynced, func(s uint64) bool { return slices.Contains(drop, s) })
	if r.durableEnd > cycle+1 {
		if err := r.commitCut(); err != nil {
			return err
		}
	}
	for _, start := range drop {
		r.remove(start)
	}
	return nil
}

// commitCut commits a Truncate that dropped rows the durable index
// credits. The kept buffered rows stay credited throughout: the old index
// credits them through the cut, in file c<bufStart>, which holds them
// durably. So the new index goes first, crediting the kept rows in that
// file as it stands; only then is the file rewritten to the kept rows,
// fsynced before its rename. A crash at any step leaves an index whose
// every credited row is durable and kept — never fewer rows than the cut.
func (r *Recorder) commitCut() error {
	entries := r.chunks
	var data []byte
	if r.bufRows > 0 {
		var sums []SigSum
		data, sums = r.enc.encode(r.bufStart, r.buf, r.nsig, len(r.meta.Signals))
		entries = append(slices.Clip(entries), ChunkInfo{Start: r.bufStart, Count: uint64(r.bufRows), Sums: sums})
	}
	if err := r.commit(entries); err != nil {
		return err
	}
	if r.bufRows == 0 || r.tail.Count == uint64(r.bufRows) {
		return nil
	}
	// The index now credits the kept rows of c<bufStart>, so land syncs.
	if err := r.land(r.bufStart, data, true); err != nil {
		// The file keeps its longer, durable bytes, which the index credits
		// a prefix of; the next Flush rewrites it.
		return err
	}
	r.tail = entries[len(entries)-1]
	return nil
}

// Close flushes and releases the recorder.
func (r *Recorder) Close() error {
	return r.Flush()
}
