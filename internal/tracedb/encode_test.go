package tracedb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// encodeRowsByColumn is the reference chunk encoder: the same layout as
// encodeRows, built one column at a time by striding through the
// row-major buffer. Columns from nreg on are fired-rule words, summarized
// by their AND (Min) and OR (Max).
func encodeRowsByColumn(start uint64, rows []uint64, nsig, nreg int) ([]byte, []SigSum) {
	count := len(rows) / nsig
	buf := append([]byte(nil), chunkMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, chunkVer)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, start)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	sums := make([]SigSum, nsig)
	end := count * nsig
	for s := 0; s < nsig; s++ {
		prev := rows[s]
		sum := SigSum{Min: prev, Max: prev}
		dense, runs, runStart := 0, 0, 0
		for i, j := 0, s; j < end; i, j = i+1, j+nsig {
			if v := rows[j]; v != prev {
				n := uvarintLen(prev)
				dense += n * (i - runStart)
				runs += n + uvarintLen(uint64(i-runStart))
				prev, runStart = v, i
				if s >= nreg {
					sum.Min, sum.Max = sum.Min&v, sum.Max|v
				} else {
					sum.Min, sum.Max = min(sum.Min, v), max(sum.Max, v)
				}
			}
		}
		n := uvarintLen(prev)
		dense += n * (count - runStart)
		runs += n + uvarintLen(uint64(count-runStart))
		sum.Changed = sum.Min != sum.Max
		sums[s] = sum
		switch {
		case !sum.Changed:
			buf = append(buf, encConst)
			buf = binary.AppendUvarint(buf, rows[s])
		case runs < dense:
			buf = append(buf, encRuns)
			prev, runStart = rows[s], 0
			for i, j := 0, s; j < end; i, j = i+1, j+nsig {
				if v := rows[j]; v != prev {
					buf = binary.AppendUvarint(buf, prev)
					buf = binary.AppendUvarint(buf, uint64(i-runStart))
					prev, runStart = v, i
				}
			}
			buf = binary.AppendUvarint(buf, prev)
			buf = binary.AppendUvarint(buf, uint64(count-runStart))
		default:
			buf = append(buf, encDense)
			for j := s; j < end; j += nsig {
				buf = binary.AppendUvarint(buf, rows[j])
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable)), sums
}

// msiRows returns n consecutive msi rows, row-major.
func msiRows(t testing.TB, n int) ([]uint64, int) {
	eng, tb := newEngine(t, "msi")
	nsig := len(eng.Design().Registers)
	rows := make([]uint64, 0, n*nsig)
	row := make([]uint64, nsig)
	for i := 0; i < n; i++ {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		rows = append(rows, sampleRow(eng, row)...)
	}
	return rows, nsig
}

// TestEncodeRowsMatchesColumnEncoder: the one-pass encoder writes exactly
// the reference encoder's bytes and summaries, on msi rows and on random
// rows whose columns mix constants, runs of every length and dense noise,
// some of them summarized as fired-rule words.
func TestEncodeRowsMatchesColumnEncoder(t *testing.T) {
	check := func(name string, rows []uint64, nsig, nreg int) {
		t.Helper()
		got, gotSums := encodeRows(nil, 99, rows, nsig, nreg)
		want, wantSums := encodeRowsByColumn(99, rows, nsig, nreg)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: chunk bytes differ from the reference encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		for s := range wantSums {
			if gotSums[s] != wantSums[s] {
				t.Fatalf("%s: signal %d summary %+v, want %+v", name, s, gotSums[s], wantSums[s])
			}
		}
	}
	for _, n := range []int{1, 2, 1024} {
		rows, nsig := msiRows(t, n)
		check("msi", rows, nsig, nsig)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nsig, count := 1+rng.Intn(12), 1+rng.Intn(300)
		rows := make([]uint64, nsig*count)
		for s := 0; s < nsig; s++ {
			// Per column: the chance a row changes the value, and the range.
			p, span := rng.Float64(), uint64(1)<<rng.Intn(64)
			v := rng.Uint64() % span
			for i := 0; i < count; i++ {
				if rng.Float64() < p {
					v = rng.Uint64() % span
				}
				rows[i*nsig+s] = v
			}
		}
		check("random", rows, nsig, rng.Intn(nsig+1))
	}
}

// BenchmarkEncodeRowsMSI encodes one 1024-row msi chunk, reusing the
// encoder's scratch as the recorder does.
func BenchmarkEncodeRowsMSI(b *testing.B) {
	rows, nsig := msiRows(b, DefaultChunkCycles)
	var e chunkEncoder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.encode(0, rows, nsig, nsig)
	}
}
