// Package tracedb is the indexed on-disk trace store behind the daemon's
// time-travel queries and waveforms: sessions record every register's value
// and the set of rules that fired each cycle into per-column chunks, and
// queries ("first cycle where cache.state == M and ack == 0", "last cycle
// fired(rule)", watch scans, run-vs-run diffs) answer from the chunk index
// instead of re-simulating; VCD windows are re-emitted from it.
//
// A recording is one directory:
//
//	meta.json     the schema: format version, design name, signal
//	              names/widths (declaration order), rule names, chunk size
//	              — JSON, because humans read it
//	c<N>.ktrc     one chunk of consecutive cycles starting at cycle N,
//	              columnar (constant, dense or run-length), CRC-32C trailed
//	index.ktix    the cycle index: every chunk's extent plus per-column
//	              summaries (min/max/changed; AND/OR/changed for a
//	              fired-rule word), CRC-32C trailed
//
// A row holds one column per signal, then, when the schema lists rules,
// ceil(rules/64) fired-rule words: bit i%64 of word i/64 is set when rule
// i committed that cycle (sim.RowReader.ReadFired). Format 1 recordings
// predate fired-rule columns; they hold signals only and still open,
// answer register queries and resume.
//
// Writes are group-committed through a faultinj.FS. A chunk boundary lands
// only the chunk file (temp + rename, no fsync), so recording costs no
// fsync and no index rewrite per chunk. Recorder.Flush is the one commit
// point: it fsyncs every chunk file landed since the last commit, then the
// directory, and only then replaces index.ktix atomically (temp + fsync +
// rename + directory sync, the snapshot store's discipline). The durable
// index therefore never credits a row whose chunk is not durable: a
// recording is durable up to its last flush (the daemon flushes at every
// checkpoint, query, record-off, close and eviction), and a crash loses
// only the rows recorded after it. A chunk file holding more rows than the
// index credits, or one the index does not credit at all, is such a lost
// suffix: readers ignore it and Resume deletes or cuts it. Anything that
// slips through (torn writes, bit rot) is caught by the checksum on load
// and quarantined (.corrupt rename) instead of ever being served as a
// wrong answer.
package tracedb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
)

const (
	chunkMagic = "KTRC"
	indexMagic = "KTIX"
	// formatVer is the recording format meta.json declares: 2 added the
	// rule list and its fired-rule columns. The chunk layout is unchanged
	// since format 1 (chunkVer), so both formats share it. indexVer 2
	// summarizes a fired-rule word by its AND and OR, where 1 held its
	// numeric min and max: a version 1 index fails to decode and is
	// rebuilt from the chunks.
	formatVer = 2
	chunkVer  = 1
	indexVer  = 2
	crcLen    = 4

	// DefaultChunkCycles is the default chunk extent. 1024 keeps chunk
	// files small enough to decode in microseconds while making the index
	// three orders of magnitude smaller than the data.
	DefaultChunkCycles = 1024

	// maxSignals and maxChunkRows bound decoding so corrupt or adversarial
	// files cannot demand unbounded allocations.
	maxSignals   = 1 << 20
	maxChunkRows = 1 << 22
)

// ErrCorrupt marks every trace decode failure — truncation, bad magic,
// checksum mismatch, impossible counts — so callers can distinguish "the
// bytes are bad" (quarantine, never trust) from I/O errors.
var ErrCorrupt = errors.New("tracedb: corrupt")

// ErrGap reports an Append whose cycle is not contiguous with the
// recording (a restore jumped past the recorded end); the recording can no
// longer represent a gap-free cycle axis and must stop or truncate.
var ErrGap = errors.New("tracedb: append is not contiguous with the recording")

// ErrNoTrace reports a directory that holds no recording.
var ErrNoTrace = errors.New("tracedb: no recording")

// ErrNoFired reports a fired(rule) query over a recording without
// fired-rule columns.
var ErrNoFired = errors.New("tracedb: the recording predates fired-rule columns (format 1); re-record to query fired(rule)")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Signal is one recorded wire: a register of the design, in declaration
// order.
type Signal struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
}

// Meta is a recording's schema, persisted as meta.json. Rules, when set,
// names the design's rules in declaration order; each row then carries
// their fired-rule words after the signals.
type Meta struct {
	Version     int      `json:"version"`
	Design      string   `json:"design"`
	ChunkCycles uint64   `json:"chunk_cycles"`
	Signals     []Signal `json:"signals"`
	Rules       []string `json:"rules,omitempty"`
}

// Columns is a row's width: the signals, then the fired-rule words.
func (m Meta) Columns() int { return len(m.Signals) + sim.FiredWords(len(m.Rules)) }

// MetaFor builds the register-only recording schema of a design: every
// register, in declaration order, so recorded rows restore straight into
// engines and snapshots without reordering. WithRules adds the fired-rule
// columns.
func MetaFor(d *ast.Design, chunkCycles uint64) Meta {
	if chunkCycles == 0 {
		chunkCycles = DefaultChunkCycles
	}
	m := Meta{Version: formatVer, Design: d.Name, ChunkCycles: chunkCycles}
	for _, r := range d.Registers {
		m.Signals = append(m.Signals, Signal{Name: r.Name, Width: r.Type.BitWidth()})
	}
	return m
}

// WithRules returns m recording d's fired rules too: rows become the
// watched rows of sim.RowLen.
func (m Meta) WithRules(d *ast.Design) Meta {
	m.Rules = make([]string, len(d.Rules))
	for i, r := range d.Rules {
		m.Rules[i] = r.Name
	}
	return m
}

// CheckDesign verifies that a design matches the recording's schema, so a
// query compiled against the wrong design can never read misaligned
// columns.
func (m Meta) CheckDesign(d *ast.Design) error {
	if len(d.Registers) != len(m.Signals) {
		return fmt.Errorf("tracedb: design %q has %d registers, recording has %d signals",
			d.Name, len(d.Registers), len(m.Signals))
	}
	for i, r := range d.Registers {
		if s := m.Signals[i]; s.Name != r.Name || s.Width != r.Type.BitWidth() {
			return fmt.Errorf("tracedb: signal %d is %s[%d] in the recording but %s[%d] in design %q",
				i, s.Name, s.Width, r.Name, r.Type.BitWidth(), d.Name)
		}
	}
	if len(m.Rules) == 0 {
		return nil
	}
	if len(d.Rules) != len(m.Rules) {
		return fmt.Errorf("tracedb: design %q has %d rules, recording has %d", d.Name, len(d.Rules), len(m.Rules))
	}
	for i, r := range d.Rules {
		if m.Rules[i] != r.Name {
			return fmt.Errorf("tracedb: rule %d is %s in the recording but %s in design %q", i, m.Rules[i], r.Name, d.Name)
		}
	}
	return nil
}

// equal reports schema equality (diffs require it).
func (m Meta) equalSignals(o Meta) bool {
	if len(m.Signals) != len(o.Signals) {
		return false
	}
	for i, s := range m.Signals {
		if o.Signals[i] != s {
			return false
		}
	}
	return true
}

// SigSum is one column's per-chunk summary: the value range and whether the
// value varies inside the chunk. A fired-rule word's column instead keeps
// the bitwise AND of its words in Min (the rules that fired every cycle)
// and their OR in Max (the rules that fired at all); AND == OR exactly
// when every word is equal. For an unchanged column Min == Max is the
// value itself, so a query whose read set is unchanged across a chunk is
// answered from the index without touching the chunk file.
type SigSum struct {
	Min, Max uint64
	Changed  bool
}

// ChunkInfo is one chunk's index entry.
type ChunkInfo struct {
	Start uint64 // first cycle in the chunk
	Count uint64 // consecutive cycles recorded
	Sums  []SigSum
}

func chunkFile(start uint64) string { return "c" + strconv.FormatUint(start, 10) + ".ktrc" }

// --- chunk encoding ---------------------------------------------------------

// Per-signal column encodings inside a chunk.
const (
	encConst = 0 // one value for every row
	encDense = 1 // one uvarint per row
	encRuns  = 2 // (value, run length) uvarint pairs; the runs cover every row
)

// uvarintLen is the byte length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1)*9 + 64) / 64 }

// encodeRows serializes a chunk of rows starting at cycle start, appending
// to dst, and returns the bytes and the per-signal summaries. rows is
// row-major: nsig values per row, in schema order. Layout, little-endian:
//
//	0      4    magic "KTRC"
//	4      2    version
//	6      2    reserved (zero)
//	8      8    start cycle
//	16     4    row count
//	20     var  per signal: encoding byte, then its values as uvarints —
//	            encConst: the one value; encDense: one per row; encRuns:
//	            (value, run length) pairs whose lengths sum to the row count
//	end-4  4    CRC-32C of every preceding byte
//
// A constant column is encConst; a changing one takes whichever of
// encDense and encRuns is smaller, so a register that changes on a few
// cycles costs a few pairs, not a value per row. Columns are the schema's
// (Meta.Columns): the signals, then the fired-rule words, which start at
// column nreg and are summarized bitwise.
func encodeRows(dst []byte, start uint64, rows []uint64, nsig, nreg int) ([]byte, []SigSum) {
	e := chunkEncoder{buf: dst}
	return e.encode(start, rows, nsig, nreg)
}

// chunkEncoder is encodeRows with its scratch kept between chunks. The
// bytes it returns stay valid until its next encode.
type chunkEncoder struct {
	buf          []byte
	sig          []sigRuns
	moves, bySig []move
}

// sigRuns is one signal's state while its chunk column is encoded.
type sigRuns struct {
	sum               SigSum
	runStart          int
	dense, runs, nmov int // encDense and encRuns sizes in bytes; value moves
}

// move is a row at which a signal takes a new value.
type move struct {
	sig, row int32
	v        uint64
}

func (e *chunkEncoder) encode(start uint64, rows []uint64, nsig, nreg int) ([]byte, []SigSum) {
	count := len(rows) / nsig
	buf := append(e.buf[:0], chunkMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, chunkVer)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, start)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	// One sequential pass over the buffer finds every move, in row order,
	// and keeps each signal's summary and the sizes of both encodings,
	// which only change where the value does.
	sig := slices.Grow(e.sig[:0], nsig)[:nsig]
	for s := range sig {
		sig[s] = sigRuns{sum: SigSum{Min: rows[s], Max: rows[s]}}
	}
	moves := e.moves[:0]
	for i := 1; i < count; i++ {
		prev, row := rows[(i-1)*nsig:i*nsig], rows[i*nsig:(i+1)*nsig]
		for s, v := range row[:len(prev)] {
			if u := prev[s]; v != u {
				g := &sig[s]
				n := uvarintLen(u)
				g.dense += n * (i - g.runStart)
				g.runs += n + uvarintLen(uint64(i-g.runStart))
				g.runStart = i
				g.nmov++
				g.sum.Min, g.sum.Max = min(g.sum.Min, v), max(g.sum.Max, v)
				moves = append(moves, move{int32(s), int32(i), v})
			}
		}
	}
	// Group the moves by signal, keeping row order within each: signal s's
	// runs start at row 0 and at each of its moves.
	bySig := slices.Grow(e.bySig[:0], len(moves))[:len(moves)]
	at := 0
	for s := range sig {
		// Reuse runStart as signal s's next slot in bySig.
		sig[s].runStart, at = at, at+sig[s].nmov
	}
	for _, m := range moves {
		bySig[sig[m.sig].runStart] = m
		sig[m.sig].runStart++
	}
	sums := make([]SigSum, nsig)
	at = 0
	for s := range sig {
		g := &sig[s]
		ms := bySig[at : at+g.nmov]
		at += g.nmov
		// The last run ends at the chunk's end.
		last, lastStart := rows[s], 0
		if len(ms) > 0 {
			last, lastStart = ms[len(ms)-1].v, int(ms[len(ms)-1].row)
		}
		n := uvarintLen(last)
		g.dense += n * (count - lastStart)
		g.runs += n + uvarintLen(uint64(count-lastStart))
		if s >= nreg {
			// A fired-rule word: the AND and OR of its values.
			g.sum.Min, g.sum.Max = rows[s], rows[s]
			for _, m := range ms {
				g.sum.Min, g.sum.Max = g.sum.Min&m.v, g.sum.Max|m.v
			}
		}
		g.sum.Changed = g.nmov > 0
		sums[s] = g.sum
		switch {
		case !g.sum.Changed:
			buf = append(buf, encConst)
			buf = binary.AppendUvarint(buf, rows[s])
		case g.runs < g.dense:
			buf = append(buf, encRuns)
			v, from := rows[s], 0
			for _, m := range ms {
				buf = binary.AppendUvarint(buf, v)
				buf = binary.AppendUvarint(buf, uint64(int(m.row)-from))
				v, from = m.v, int(m.row)
			}
			buf = binary.AppendUvarint(buf, v)
			buf = binary.AppendUvarint(buf, uint64(count-from))
		default:
			buf = append(buf, encDense)
			v, from := rows[s], 0
			for _, m := range ms {
				for ; from < int(m.row); from++ {
					buf = binary.AppendUvarint(buf, v)
				}
				v = m.v
			}
			for ; from < count; from++ {
				buf = binary.AppendUvarint(buf, v)
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	e.buf, e.sig, e.moves, e.bySig = buf, sig, moves, bySig
	return buf, sums
}

// chunkView is a validated chunk file whose columns decode on first use,
// so a query reading two signals decodes two columns, not every signal.
// parseChunk validates everything up front — header, checksum, every
// column's encoding and values, run lengths, no trailing bytes — so a
// column decoded later can never meet bad bytes.
type chunkView struct {
	start uint64
	count int // rows a column decodes to (the file's, or the index's prefix)
	body  []byte
	enc   []byte     // per signal: encConst, encDense or encRuns
	off   []int      // per signal: offset of its first value in body
	cols  [][]uint64 // per signal: the decoded column, nil until first use
}

// parseChunk validates a chunk file and locates its columns. Every failure
// wraps ErrCorrupt.
func parseChunk(data []byte, nsig int) (*chunkView, error) {
	if len(data) < 20+crcLen {
		return nil, corruptf("chunk truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != chunkMagic {
		return nil, corruptf("bad chunk magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != chunkVer {
		return nil, corruptf("unsupported chunk version %d", v)
	}
	body := data[:len(data)-crcLen]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, corruptf("chunk checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	count := binary.LittleEndian.Uint32(body[16:20])
	if count == 0 || count > maxChunkRows {
		return nil, corruptf("chunk row count %d out of range", count)
	}
	v := &chunkView{
		start: binary.LittleEndian.Uint64(body[8:16]),
		count: int(count),
		body:  body,
		enc:   make([]byte, nsig),
		off:   make([]int, nsig),
		cols:  make([][]uint64, nsig),
	}
	pos := 20
	for s := 0; s < nsig; s++ {
		if pos == len(body) {
			return nil, corruptf("chunk signal %d missing", s)
		}
		v.enc[s], v.off[s] = body[pos], pos+1
		pos++
		var n int
		switch v.enc[s] {
		case encConst:
			n = skipUvarints(body[pos:], 1)
		case encDense:
			n = skipUvarints(body[pos:], v.count)
		case encRuns:
			n = skipRuns(body[pos:], v.count)
		default:
			return nil, corruptf("chunk signal %d has unknown encoding %d", s, v.enc[s])
		}
		if n < 0 {
			return nil, corruptf("chunk signal %d malformed", s)
		}
		pos += n
	}
	if pos != len(body) {
		return nil, corruptf("chunk has %d trailing bytes", len(body)-pos)
	}
	return v, nil
}

// skipUvarints returns the byte length of the first k uvarints in b, or -1
// when b holds fewer than k or one of them overflows 64 bits — exactly the
// inputs binary.Uvarint rejects.
func skipUvarints(b []byte, k int) int {
	i, run := 0, 0
	for k > 0 {
		if i == len(b) {
			return -1
		}
		c := b[i]
		i++
		if c >= 0x80 {
			if run++; run == binary.MaxVarintLen64 {
				return -1
			}
			continue
		}
		if run == binary.MaxVarintLen64-1 && c > 1 {
			return -1
		}
		run = 0
		k--
	}
	return i
}

// skipRuns returns the byte length of the (value, run length) pairs in b
// that cover exactly count rows, or -1 when a pair is malformed, a run is
// empty, or the runs overshoot count.
func skipRuns(b []byte, count int) int {
	i := 0
	for left := uint64(count); left > 0; {
		_, n := binary.Uvarint(b[i:])
		if n <= 0 {
			return -1
		}
		i += n
		k, m := binary.Uvarint(b[i:])
		if m <= 0 || k == 0 || k > left {
			return -1
		}
		i += m
		left -= k
	}
	return i
}

// col returns signal s's column, decoding it on first use. The slice is
// shared with later calls; callers must not modify it.
func (v *chunkView) col(s int) []uint64 {
	if c := v.cols[s]; c != nil {
		return c
	}
	c := make([]uint64, v.count)
	b := v.body[v.off[s]:]
	switch v.enc[s] {
	case encConst:
		x, _ := binary.Uvarint(b)
		for i := range c {
			c[i] = x
		}
	case encDense:
		for i := range c {
			x, n := binary.Uvarint(b)
			c[i], b = x, b[n:]
		}
	default: // encRuns
		for i := 0; i < len(c); {
			x, n := binary.Uvarint(b)
			k, m := binary.Uvarint(b[n:])
			b = b[n+m:]
			for end := min(i+int(k), len(c)); i < end; i++ {
				c[i] = x
			}
		}
	}
	v.cols[s] = c
	return c
}

// appendRows appends the chunk's first n rows to dst in row-major order —
// the recorder's buffer layout.
func (v *chunkView) appendRows(dst []uint64, n int) []uint64 {
	nsig := len(v.cols)
	base := len(dst)
	dst = slices.Grow(dst, n*nsig)[:base+n*nsig]
	for s := 0; s < nsig; s++ {
		for i, x := range v.col(s)[:n] {
			dst[base+i*nsig+s] = x
		}
	}
	return dst
}

// sumOf summarizes one decoded column; word marks a fired-rule word.
func sumOf(col []uint64, word bool) SigSum {
	sum := SigSum{Min: col[0], Max: col[0]}
	for _, v := range col[1:] {
		if word {
			sum.Min, sum.Max = sum.Min&v, sum.Max|v
		} else {
			sum.Min, sum.Max = min(sum.Min, v), max(sum.Max, v)
		}
	}
	sum.Changed = sum.Min != sum.Max
	return sum
}

// --- index encoding ---------------------------------------------------------

// encodeIndex serializes the cycle index. Layout, little-endian: magic
// "KTIX", version, reserved, signal count (uvarint, must match meta), chunk
// count (uvarint), then per chunk: start, count, and per column a flags
// byte (bit 0 = changed) plus the SigSum's Min and Max uvarints; CRC-32C
// trailer.
// Binary, not JSON: min/max are full 64-bit payloads and JSON numbers lose
// bits past 2^53.
func encodeIndex(nsig int, chunks []ChunkInfo) []byte {
	buf := make([]byte, 0, 16+len(chunks)*(4+nsig*4))
	buf = append(buf, indexMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, indexVer)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(nsig))
	buf = binary.AppendUvarint(buf, uint64(len(chunks)))
	for _, c := range chunks {
		buf = binary.AppendUvarint(buf, c.Start)
		buf = binary.AppendUvarint(buf, c.Count)
		for _, s := range c.Sums {
			var flags byte
			if s.Changed {
				flags = 1
			}
			buf = append(buf, flags)
			buf = binary.AppendUvarint(buf, s.Min)
			buf = binary.AppendUvarint(buf, s.Max)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

func decodeIndex(data []byte, nsig int) ([]ChunkInfo, error) {
	if len(data) < 8+crcLen {
		return nil, corruptf("index truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != indexMagic {
		return nil, corruptf("bad index magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != indexVer {
		return nil, corruptf("unsupported index version %d", v)
	}
	body := data[:len(data)-crcLen]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, corruptf("index checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	rest := body[8:]
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, corruptf("index %s malformed", what)
		}
		rest = rest[n:]
		return v, nil
	}
	gotSig, err := uv("signal count")
	if err != nil {
		return nil, err
	}
	if int(gotSig) != nsig {
		return nil, corruptf("index describes %d signals, meta has %d", gotSig, nsig)
	}
	nchunks, err := uv("chunk count")
	if err != nil {
		return nil, err
	}
	if nchunks > maxChunkRows {
		return nil, corruptf("index chunk count %d out of range", nchunks)
	}
	chunks := make([]ChunkInfo, 0, nchunks)
	for i := uint64(0); i < nchunks; i++ {
		var c ChunkInfo
		if c.Start, err = uv("chunk start"); err != nil {
			return nil, err
		}
		if c.Count, err = uv("chunk rows"); err != nil {
			return nil, err
		}
		if c.Count == 0 || c.Count > maxChunkRows {
			return nil, corruptf("index chunk %d row count %d out of range", i, c.Count)
		}
		c.Sums = make([]SigSum, nsig)
		for s := 0; s < nsig; s++ {
			if len(rest) == 0 {
				return nil, corruptf("index chunk %d summary truncated", i)
			}
			flags := rest[0]
			rest = rest[1:]
			c.Sums[s].Changed = flags&1 != 0
			if c.Sums[s].Min, err = uv("summary min"); err != nil {
				return nil, err
			}
			if c.Sums[s].Max, err = uv("summary max"); err != nil {
				return nil, err
			}
		}
		chunks = append(chunks, c)
	}
	if len(rest) != 0 {
		return nil, corruptf("index has %d trailing bytes", len(rest))
	}
	return chunks, nil
}

// --- shared store plumbing --------------------------------------------------

// atomicWrite lands data crash-safely: syncedRename, then a directory
// sync — the same discipline the snapshot store uses (and the same faultinj
// hooks, so the durability tests tear these writes too).
func atomicWrite(fsys faultinj.FS, path string, data []byte) error {
	if err := syncedRename(fsys, path, data); err != nil {
		return err
	}
	return fsys.Sync(filepath.Dir(path))
}

// syncedRename replaces path with data by temp + fsync + rename; the new
// name is durable once the directory is synced.
func syncedRename(fsys faultinj.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := fsys.Sync(tmp); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// quarantine renames a damaged file aside so it is never decoded again but
// stays on disk for forensics.
func quarantine(fsys faultinj.FS, path string) error {
	return fsys.Rename(path, path+".corrupt")
}

// loadState opens a recording directory: meta, then the index (rebuilt by
// scanning chunk files when missing or corrupt), then a contiguity check
// that drops anything unreachable. It never decodes chunk payloads unless
// the index is being rebuilt.
func loadState(dir string, fsys faultinj.FS) (Meta, []ChunkInfo, error) {
	var meta Meta
	metaBytes, err := fsys.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return meta, nil, fmt.Errorf("%w in %s", ErrNoTrace, dir)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, nil, corruptf("meta.json: %v", err)
	}
	if meta.Version != formatVer && (meta.Version != 1 || len(meta.Rules) != 0) {
		return meta, nil, corruptf("unsupported recording version %d", meta.Version)
	}
	if len(meta.Signals) == 0 || meta.Columns() > maxSignals {
		return meta, nil, corruptf("meta declares %d signals and %d rules", len(meta.Signals), len(meta.Rules))
	}
	if meta.ChunkCycles == 0 || meta.ChunkCycles > maxChunkRows {
		return meta, nil, corruptf("meta chunk size %d out of range", meta.ChunkCycles)
	}
	// Leftover temp files are a crash mid-write; the rename never happened,
	// so they are garbage.
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				_ = fsys.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	var chunks []ChunkInfo
	idxBytes, err := fsys.ReadFile(filepath.Join(dir, "index.ktix"))
	if err == nil {
		chunks, err = decodeIndex(idxBytes, meta.Columns())
		if err != nil {
			_ = quarantine(fsys, filepath.Join(dir, "index.ktix"))
			chunks = nil
		}
	}
	if chunks == nil {
		// No (usable) index: rebuild it by decoding every chunk file. Corrupt
		// chunks are quarantined here rather than discovered one query at a
		// time.
		chunks, err = rebuildIndex(dir, fsys, meta)
		if err != nil {
			return meta, nil, err
		}
	}
	chunks = contiguousPrefix(chunks)
	return meta, chunks, nil
}

// rebuildIndex scans the directory for chunk files and recomputes every
// summary, quarantining undecodable chunks.
func rebuildIndex(dir string, fsys faultinj.FS, meta Meta) ([]ChunkInfo, error) {
	nsig := meta.Columns()
	starts, err := chunkStarts(dir, fsys)
	if err != nil {
		return nil, err
	}
	var chunks []ChunkInfo
	for _, start := range starts {
		path := filepath.Join(dir, chunkFile(start))
		data, err := fsys.ReadFile(path)
		if err != nil {
			continue
		}
		v, err := parseChunk(data, nsig)
		if err != nil || v.start != start {
			_ = quarantine(fsys, path)
			continue
		}
		sums := make([]SigSum, nsig)
		for s := range sums {
			sums[s] = sumOf(v.col(s), s >= len(meta.Signals))
		}
		chunks = append(chunks, ChunkInfo{Start: start, Count: uint64(v.count), Sums: sums})
	}
	return chunks, nil
}

// chunkStarts lists the start cycles of the chunk files in dir, ascending.
func chunkStarts(dir string, fsys faultinj.FS) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		rest, ok := strings.CutSuffix(e.Name(), ".ktrc")
		if !ok || !strings.HasPrefix(rest, "c") {
			continue
		}
		if n, err := strconv.ParseUint(rest[1:], 10, 64); err == nil {
			starts = append(starts, n)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// contiguousPrefix keeps the longest gap-free prefix of chunks: a recording
// is a single unbroken cycle axis, so anything after a hole (a quarantined
// middle chunk) is unreachable and will be re-recorded.
func contiguousPrefix(chunks []ChunkInfo) []ChunkInfo {
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Start != chunks[i-1].Start+chunks[i-1].Count {
			return chunks[:i]
		}
	}
	return chunks
}
