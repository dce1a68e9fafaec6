package dsp

import (
	"math/rand"
	"testing"
)

// refFFTFixed is the bit-exactness oracle for the fixed-point FFT: the
// plain radix-2 stage loop the fused kernel replaced, kept verbatim — one
// full load/store sweep per stage, the twiddle-free size-2 and size-4
// stages specialized, every later stage driven by its own contiguous
// twiddle table. fftStages must reproduce it bit for bit.
func refFFTFixed(re, im []int32) {
	tw := twiddlesFor(len(re))
	sc, ss := refStageTables(tw)
	n := len(re)
	if len(im) < n {
		panic("dsp: fftFixed im shorter than re")
	}
	bitReversePerm(re, im, tw.perm)
	for rr, ii := re, im; len(rr) >= 2 && len(ii) >= 2; rr, ii = rr[2:], ii[2:] {
		ar, ai := rr[0]>>1, ii[0]>>1
		br, bi := rr[1]>>1, ii[1]>>1
		rr[0], ii[0] = ar+br, ai+bi
		rr[1], ii[1] = ar-br, ai-bi
	}
	for rr, ii := re, im; len(rr) >= 4 && len(ii) >= 4; rr, ii = rr[4:], ii[4:] {
		ar, ai := rr[0]>>1, ii[0]>>1
		br, bi := rr[2]>>1, ii[2]>>1
		rr[0], ii[0] = ar+br, ai+bi
		rr[2], ii[2] = ar-br, ai-bi
		// k = 1: W = -i rotates (br, bi) to (bi, -br).
		ar, ai = rr[1]>>1, ii[1]>>1
		br, bi = rr[3]>>1, ii[3]>>1
		rr[1], ii[1] = ar+bi, ai-br
		rr[3], ii[3] = ar-bi, ai+br
	}
	for s := 0; s < len(sc) && s < len(ss); s++ {
		cw, sw := sc[s], ss[s]
		half := len(cw)
		if half == 0 || half > n>>1 || len(sw) != half {
			break
		}
		rr, ii := re, im
		for len(rr) >= half && len(ii) >= half {
			al, bl := rr[:half], ii[:half]
			rr, ii = rr[half:], ii[half:]
			if len(rr) < half || len(ii) < half {
				break
			}
			ah, bh := rr[:half], ii[:half]
			rr, ii = rr[half:], ii[half:]
			for k := 0; k < len(al) && k < len(ah) && k < len(bl) && k < len(bh) && k < len(cw) && k < len(sw); k++ {
				wr := cw[k]
				wi := sw[k]
				// Complex multiply in Q15 with rounding.
				tr := int32((int64(wr)*int64(ah[k]) - int64(wi)*int64(bh[k]) + 16384) >> 15)
				ti := int32((int64(wr)*int64(bh[k]) + int64(wi)*int64(ah[k]) + 16384) >> 15)
				// Stage scaling by 1/2 keeps magnitudes bounded.
				ai := al[k] >> 1
				bi := bl[k] >> 1
				tr >>= 1
				ti >>= 1
				ah[k] = ai - tr
				bh[k] = bi - ti
				al[k] = ai + tr
				bl[k] = bi + ti
			}
		}
	}
}

// refStageTables builds the per-stage contiguous twiddle tables the oracle
// walks: entry s covers butterfly stage size 8<<s, with entry k equal to
// cos/sin[k·(n/size)] of the shared table.
func refStageTables(tw *twiddles) (stageCos, stageSin [][]int32) {
	n := 2 * len(tw.cos)
	for size := 8; size <= n; size <<= 1 {
		half, stride := size/2, n/size
		cos, sin := make([]int32, half), make([]int32, half)
		for k := 0; k < half; k++ {
			cos[k], sin[k] = tw.cos[k*stride], tw.sin[k*stride]
		}
		stageCos = append(stageCos, cos)
		stageSin = append(stageSin, sin)
	}
	return stageCos, stageSin
}

// refRFFTFixed is RFFTFixed over the oracle: natural-order even/odd pack,
// refFFTFixed, and the split post-pass of rfftFixed.
func refRFFTFixed(x []int32) (re, im []int32) {
	m := len(x) / 2
	re, im = make([]int32, m), make([]int32, m)
	for i := 0; i < m; i++ {
		re[i], im[i] = x[2*i], x[2*i+1]
	}
	refFFTFixed(re, im)
	full := twiddlesFor(len(x))
	const rnd = 1 << 16
	for k, j := 1, m-1; k < j; k, j = k+1, j-1 {
		zrk, zik := int64(re[k]), int64(im[k])
		zrj, zij := int64(re[j]), int64(im[j])
		er2, ei2 := zrk+zrj, zik-zij
		or2, oi2 := zik+zij, zrj-zrk
		cw, sw := int64(full.cos[k]), int64(full.sin[k])
		p1 := cw*or2 - sw*oi2
		p2 := cw*oi2 + sw*or2
		re[k] = int32((er2<<15 + p1 + rnd) >> 17)
		im[k] = int32((ei2<<15 + p2 + rnd) >> 17)
		re[j] = int32((er2<<15 - p1 + rnd) >> 17)
		im[j] = int32((-ei2<<15 + p2 + rnd) >> 17)
	}
	zr0, zi0 := int64(re[0]), int64(im[0])
	re[0] = int32((zr0 + zi0 + 1) >> 1)
	im[0] = 0
	if h := m / 2; h > 0 {
		re[h] = int32((int64(re[h]) + 1) >> 1)
		im[h] = int32((-int64(im[h]) + 1) >> 1)
	}
	return re, im
}

// oracleInputs returns the test signals of length n for the oracle
// comparisons: random Q15 values, random full-scale ±32767, DC and
// alternating-sign full scale, and a full-scale impulse.
func oracleInputs(r *rand.Rand, n int) [][]int32 {
	gen := func(f func(i int) int32) []int32 {
		x := make([]int32, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	return [][]int32{
		gen(func(int) int32 { return int32(r.Intn(65535) - 32767) }),
		gen(func(int) int32 { return int32(r.Intn(65535) - 32767) }),
		gen(func(int) int32 { return 32767 - 65534*int32(r.Intn(2)) }),
		gen(func(int) int32 { return 32767 }),
		gen(func(int) int32 { return -32767 }),
		gen(func(i int) int32 { return 32767 - 65534*int32(i&1) }),
		gen(func(i int) int32 {
			if i == 0 {
				return -32767
			}
			return 0
		}),
	}
}

func equalInt32(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestFFTFixedMatchesOracle: FFTFixed (permutation + fused stage kernel)
// is bit-identical to the radix-2 oracle on every power of two 1…4096.
func TestFFTFixedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for n := 1; n <= 4096; n <<= 1 {
		for trial, xr := range oracleInputs(r, n) {
			xi := oracleInputs(r, n)[trial%3]
			re, im := append([]int32(nil), xr...), append([]int32(nil), xi...)
			wr, wi := append([]int32(nil), xr...), append([]int32(nil), xi...)
			if err := FFTFixed(re, im); err != nil {
				t.Fatal(err)
			}
			refFFTFixed(wr, wi)
			if i := equalInt32(re, wr); i >= 0 {
				t.Fatalf("n=%d trial=%d: re[%d] = %d, oracle %d", n, trial, i, re[i], wr[i])
			}
			if i := equalInt32(im, wi); i >= 0 {
				t.Fatalf("n=%d trial=%d: im[%d] = %d, oracle %d", n, trial, i, im[i], wi[i])
			}
		}
	}
}

// TestRFFTMatchesOracle: RFFTFixed, and the frontend's rfftPowerFixed fed
// the bit-reversed pack, are bit-identical to the oracle real transform on
// every power of two 2…4096.
func TestRFFTMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for n := 2; n <= 4096; n <<= 1 {
		m := n / 2
		half, full := twiddlesFor(m), twiddlesFor(n)
		for trial, x := range oracleInputs(r, n) {
			wr, wi := refRFFTFixed(x)
			re, im := make([]int32, m), make([]int32, m)
			if err := RFFTFixed(x, re, im); err != nil {
				t.Fatal(err)
			}
			if i := equalInt32(re, wr); i >= 0 {
				t.Fatalf("n=%d trial=%d: re[%d] = %d, oracle %d", n, trial, i, re[i], wr[i])
			}
			if i := equalInt32(im, wi); i >= 0 {
				t.Fatalf("n=%d trial=%d: im[%d] = %d, oracle %d", n, trial, i, im[i], wi[i])
			}
			for i := 0; i < m; i++ {
				re[half.perm[i]], im[half.perm[i]] = x[2*i], x[2*i+1]
			}
			pow := make([]uint64, m)
			rfftPowerFixed(re, im, half, full, pow)
			for k := range pow {
				xr, xi := int64(wr[k]), int64(wi[k])
				if want := uint64(xr*xr + xi*xi); pow[k] != want {
					t.Fatalf("n=%d trial=%d: pow[%d] = %d, oracle %d", n, trial, k, pow[k], want)
				}
			}
		}
	}
}

// TestRadix8TwiddleConstants: the radix-8 pass's constant twiddles are the
// table's W_8^k for every FFT size that runs it.
func TestRadix8TwiddleConstants(t *testing.T) {
	want := [4][2]int32{{w8c0, w8s0}, {w8c1, w8s1}, {w8c2, w8s2}, {w8c3, w8s3}}
	for n := 8; n <= 4096; n <<= 1 {
		tw := twiddlesFor(n)
		for k, w := range want {
			if got := [2]int32{tw.cos[k*n/8], tw.sin[k*n/8]}; got != w {
				t.Fatalf("n=%d: W_8^%d = %v in the table, constant %v", n, k, got, w)
			}
		}
	}
}
