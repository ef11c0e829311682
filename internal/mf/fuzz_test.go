package mf

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzScoreRows feeds arbitrary float32 bit patterns (every NaN payload,
// subnormal and infinity included) through ScoreRows and requires each
// score to equal Dot bit for bit (sameScore). The first byte picks k, the
// second the Q offset; the remaining bytes are p followed by as many whole
// Q rows as they fill.
func FuzzScoreRows(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 0, 0, 0x40, 0x40, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f})
	f.Add([]byte{5, 1,
		0, 0, 0xc0, 0x7f, 0, 0, 0xc0, 0xff, 0, 0, 0x80, 0x7f, 0, 0, 0, 0, 1, 0, 0, 0,
		0x45, 0x23, 0xc1, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 0xff, 0xff, 0x7f, 0x7f, 0, 0, 0xc0, 0x7f,
		0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%24
		off := int(data[1]) % 4
		vals := make([]float32, off+(len(data)-2)/4)
		for i := off; i < len(vals); i++ {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[2+4*(i-off):]))
		}
		if len(vals)-off < k {
			return
		}
		p := vals[off : off+k]
		q := vals[off+k:]
		n := len(q) / k
		out := make([]float32, n)
		ScoreRows(p, q, out)
		for j := 0; j < n; j++ {
			want := Dot(p, q[j*k:(j+1)*k])
			if !sameScore(out[j], want) {
				t.Fatalf("k=%d n=%d row %d: ScoreRows %#08x, Dot %#08x", k, n, j, math.Float32bits(out[j]), math.Float32bits(want))
			}
		}
	})
}
