package tracedb

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/debug"
)

// FuzzParseQuery throws arbitrary bytes at the query-string parser and, for
// anything it accepts, at the expression compiler against a small fixed
// design. Neither layer may panic; the compiler may only error.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"first x.rd0() == 8'd3",
		"last done.rd0() == 1'd1 in 10..500",
		"count x.rd0() == 8'd1 & done.rd0() == 1'd0",
		"scan x.rd0() <u 8'd4 in 0..99",
		"first x.rd0() >=u 8'd200 in 18446744073709551615..18446744073709551615",
		"first in in in 1..2",
		"first x.rd0() in 0..0",
		"count mux(done.rd0() == 1'd1, x.rd0(), 8'd0) == 8'd7",
		"scan ((((x.rd0()))))",
		"first \x00\xff",
		"last  in ..",
		"first x.rd0() == 8'd1 in 99999999999999999999..0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	d := ast.NewDesign("fuzz")
	d.Reg("x", ast.Bits(8), 0)
	d.Reg("done", ast.Bits(1), 0)
	if err := d.Check(); err != nil {
		f.Fatalf("fuzz design: %v", err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			return
		}
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		if q.To < q.From {
			t.Fatalf("ParseQuery(%q) accepted an empty window %d..%d", s, q.From, q.To)
		}
		if q.Expr == "" {
			t.Fatalf("ParseQuery(%q) accepted an empty expression", s)
		}
		// The compiler must reject or accept without panicking; the parse
		// budget guards in lang already bound recursion.
		_, _ = debug.CompileCondition(d, q.Expr)
	})
}

// FuzzChunk throws arbitrary bytes at the chunk decoder and, reading the
// same bytes as rows, at the encoder. parseChunk may reject but never
// panic, and every column of a chunk it accepts must decode; any rows must
// come back from encodeRows → parseChunk → col exactly.
func FuzzChunk(f *testing.F) {
	var rows []uint64
	for i := uint64(0); i < 64; i++ {
		rows = append(rows, 5, i/9, i*i*1e9)
	}
	good, _ := encodeRows(nil, 64, rows, 3, 3)
	f.Add(good, uint8(3))
	f.Add(good[:len(good)-1], uint8(3))
	f.Add([]byte("KTRC\x01\x00\x00\x00"), uint8(1))
	f.Add([]byte{0, 1, 1, 1, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nsig uint8) {
		if nsig == 0 || nsig > 16 {
			return
		}
		// Parse the bytes as given and, so mutations get past the checksum
		// to the column validator, with their trailer recomputed.
		resealed := append([]byte(nil), data...)
		if len(resealed) >= crcLen {
			body := resealed[:len(resealed)-crcLen]
			binary.LittleEndian.PutUint32(resealed[len(body):], crc32.Checksum(body, crcTable))
		}
		for _, b := range [][]byte{data, resealed} {
			if v, err := parseChunk(b, int(nsig)); err == nil {
				for s := 0; s < int(nsig); s++ {
					if got := len(v.col(s)); got != v.count {
						t.Fatalf("signal %d decoded %d rows, header says %d", s, got, v.count)
					}
				}
			}
		}
		// The same bytes as rows: one byte per value, drawn from a small
		// alphabet so runs occur, scaled so some values need long uvarints.
		n := len(data) / int(nsig) * int(nsig)
		if n == 0 {
			return
		}
		rows := make([]uint64, n)
		for i, b := range data[:n] {
			rows[i] = uint64(b%4) << (b / 4 % 64)
		}
		// The second half of the columns are summarized as fired-rule words.
		nreg := int(nsig) / 2
		enc, sums := encodeRows(nil, 9, rows, int(nsig), nreg)
		v, err := parseChunk(enc, int(nsig))
		if err != nil {
			t.Fatalf("parseChunk rejected encodeRows output: %v", err)
		}
		if v.start != 9 || v.count != n/int(nsig) {
			t.Fatalf("header = start %d, %d rows; want 9, %d", v.start, v.count, n/int(nsig))
		}
		for s := 0; s < int(nsig); s++ {
			col := v.col(s)
			for i, x := range col {
				if want := rows[i*int(nsig)+s]; x != want {
					t.Fatalf("signal %d row %d = %d, want %d", s, i, x, want)
				}
			}
			if want := sumOf(col, s >= nreg); sums[s] != want {
				t.Fatalf("signal %d summary %+v, want %+v", s, sums[s], want)
			}
		}
	})
}
