package tracedb

import (
	"fmt"
	"path/filepath"

	"cuttlego/internal/faultinj"
)

// A Reader answers queries over a recording's on-disk extent. It snapshots
// the index at Open, so a concurrently appending recorder never changes
// the rows a reader sees mid-query (chunk files are only ever replaced by
// atomic rename with a superset of their rows). Chunk payloads are loaded
// lazily, one chunk at a time, with a one-chunk cache for sequential scans,
// and within a chunk each signal's column is decoded on first use.
type Reader struct {
	dir    string
	fs     faultinj.FS
	meta   Meta
	chunks []ChunkInfo

	cached     int // index into chunks of the cached chunk, -1 if none
	cachedView *chunkView
}

// Open loads a recording's meta and index for querying. A missing or
// corrupt index is rebuilt from the chunk files (quarantining any that
// fail their checksum), so Open after a crash or bit-rot always yields the
// longest trustworthy prefix.
func Open(dir string, fsys faultinj.FS) (*Reader, error) {
	meta, chunks, err := loadState(dir, fsys)
	if err != nil {
		return nil, err
	}
	return &Reader{dir: dir, fs: fsys, meta: meta, chunks: chunks, cached: -1}, nil
}

// Meta returns the recording schema.
func (r *Reader) Meta() Meta { return r.meta }

// Chunks returns the index entries (shared slice; do not mutate).
func (r *Reader) Chunks() []ChunkInfo { return r.chunks }

// Bounds returns the first and last recorded cycle.
func (r *Reader) Bounds() (first, last uint64, ok bool) {
	if len(r.chunks) == 0 {
		return 0, 0, false
	}
	end := r.chunks[len(r.chunks)-1]
	return r.chunks[0].Start, end.Start + end.Count - 1, true
}

// loadChunk validates chunk i, serving repeats from the one-chunk cache.
// A chunk whose bytes fail validation is quarantined and the error
// reported — a damaged chunk never silently yields values.
func (r *Reader) loadChunk(i int) (*chunkView, error) {
	if r.cached == i {
		return r.cachedView, nil
	}
	c := r.chunks[i]
	path := filepath.Join(r.dir, chunkFile(c.Start))
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tracedb: chunk c%d: %w", c.Start, err)
	}
	v, err := parseChunk(data, r.meta.Columns())
	if err != nil {
		_ = quarantine(r.fs, path)
		return nil, fmt.Errorf("tracedb: chunk c%d quarantined: %w", c.Start, err)
	}
	if v.start != c.Start {
		_ = quarantine(r.fs, path)
		return nil, fmt.Errorf("tracedb: chunk c%d quarantined: %w", c.Start,
			corruptf("header says start %d", v.start))
	}
	if uint64(v.count) < c.Count {
		// The file holds fewer rows than the index credits: torn state.
		_ = quarantine(r.fs, path)
		return nil, fmt.Errorf("tracedb: chunk c%d quarantined: %w", c.Start,
			corruptf("has %d rows, index expects %d", v.count, c.Count))
	}
	// More rows than the index credits were landed after the last commit;
	// only the indexed prefix is visible.
	v.count = int(c.Count)
	r.cached, r.cachedView = i, v
	return v, nil
}

// Row returns the row recorded at cycle: the register values in schema
// order, then the fired-rule words when the recording has them.
func (r *Reader) Row(cycle uint64) ([]uint64, error) {
	i, ok := r.chunkAt(cycle)
	if !ok {
		return nil, fmt.Errorf("tracedb: cycle %d is outside the recording", cycle)
	}
	v, err := r.loadChunk(i)
	if err != nil {
		return nil, err
	}
	row := make([]uint64, r.meta.Columns())
	off := cycle - r.chunks[i].Start
	for s := range row {
		row[s] = v.col(s)[off]
	}
	return row, nil
}

// chunkAt finds the chunk covering cycle by binary search.
func (r *Reader) chunkAt(cycle uint64) (int, bool) {
	lo, hi := 0, len(r.chunks)
	for lo < hi {
		mid := (lo + hi) / 2
		c := r.chunks[mid]
		switch {
		case cycle < c.Start:
			hi = mid
		case cycle >= c.Start+c.Count:
			lo = mid + 1
		default:
			return mid, true
		}
	}
	return 0, false
}
