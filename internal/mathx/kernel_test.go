package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// This file runs the AVX-512 kernels (behind ScaledSet, ScaledAdd, AXPY,
// DotRows, SumScaledNorm2Sq and AXPYRows on hosts that have them) against
// the Go loops they stand in for, bit for bit, by clearing UseAVX512 for
// the Go side. On a host without AVX-512 both sides are the Go loop and
// the tests say so.

// specials are the values whose bits an element-wise kernel must carry
// exactly: signed zeros, subnormals, infinities and NaNs with payloads
// (quiet and signalling, both signs).
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308,
	math.Inf(1), math.Inf(-1), 1, -1, 1.5e300, -3e-300,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead00000000),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
}

// kernelSides runs fn on the Go loops and then, where the host has
// AVX-512, on the kernels; it reports whether the kernel side ran.
func kernelSides(t testing.TB, fn func(kernel bool)) bool {
	t.Helper()
	host := UseAVX512
	defer func() { UseAVX512 = host }()
	UseAVX512 = false
	fn(false)
	if !host {
		return false
	}
	UseAVX512 = true
	fn(true)
	return true
}

// scaledCase applies op to copies of dst on both paths and fails on the
// first element whose bits differ.
func scaledCase(t testing.TB, name string, dst []float64, op func(dst []float64)) bool {
	t.Helper()
	var want, got []float64
	ran := kernelSides(t, func(kernel bool) {
		out := append([]float64(nil), dst...)
		op(out)
		if kernel {
			got = out
		} else {
			want = out
		}
	})
	if ran {
		sameBits(t, fmt.Sprintf("%s n=%d", name, len(dst)), got, want)
	}
	return ran
}

// TestScaledKernelMatchesGo covers lengths 0–300 (every tail length) with
// special values in both vectors and the scalars.
func TestScaledKernelMatchesGo(t *testing.T) {
	var ran bool
	for n := 0; n <= 300; n++ {
		x, dst := fill(n, uint64(n)+1), fill(n, uint64(n)+1000)
		for i := n % 3; i < n; i += 5 {
			x[i] = specials[(i+n)%len(specials)]
			dst[(i*7)%n] = specials[(i*3+n)%len(specials)]
		}
		f := specials[n%len(specials)]
		c := specials[(n/len(specials))%len(specials)]
		if n%4 == 0 {
			f, c = 0.37, -1.25e-3 // ordinary scalars too
		}
		ran = scaledCase(t, "ScaledSet", dst, func(d []float64) { ScaledSet(d, f, c, x) })
		scaledCase(t, "ScaledAdd", dst, func(d []float64) { ScaledAdd(d, f, c, x) })
		scaledCase(t, "AXPY", dst, func(d []float64) { AXPY(c, x, d) })
	}
	if ran {
		t.Log("compared the AVX-512 kernel with the Go loop")
	} else {
		t.Log("no AVX-512 on this host: only the Go loop ran, kernel side skipped")
	}
}

// FuzzScaledKernel compares the paths on raw bit patterns: every input
// float, the scalars included, is any 64-bit value.
func FuzzScaledKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 300*16+18))
	raw := make([]byte, 2+16+len(specials)*16)
	raw[0] = byte(len(specials))
	for i, v := range append(append([]float64{}, specials...), specials...) {
		binary.LittleEndian.PutUint64(raw[18+8*i:], math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) >= 2 {
			n = int(binary.LittleEndian.Uint16(data)) % 301
		}
		word := func(i int) float64 {
			if off := 2 + 8*i; off+8 <= len(data) {
				return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
			return float64(i) * 0.75
		}
		a, b := word(0), word(1)
		x, dst := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], dst[i] = word(2+i), word(2+n+i)
		}
		scaledCase(t, "ScaledSet", dst, func(d []float64) { ScaledSet(d, a, b, x) })
		scaledCase(t, "ScaledAdd", dst, func(d []float64) { ScaledAdd(d, a, b, x) })
		scaledCase(t, "AXPY", dst, func(d []float64) { AXPY(b, x, d) })
	})
}

// sameBits fails on the first element whose bits differ.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] kernel %v (%#x), Go %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// rowsCase runs DotRows, SumScaledNorm2Sq and AXPYRows over one example's
// rows on both paths and compares every output bit. The Go side is
// Dot per row, ScaledNorm2Sq per coefficient and Zero, AXPY and Norm2Sq.
// On both paths SumScaledNorm2Sq must also equal the plain sum of
// ScaledNorm2Sq in t order, which its tiny-row skip stands in for.
func rowsCase(t testing.TB, x, coef []float64, rows [][]float64) bool {
	t.Helper()
	var want, got []float64
	ran := kernelSides(t, func(kernel bool) {
		dots := make([]float64, len(rows))
		DotRows(dots, x, rows)
		gin := make([]float64, len(x))
		for i := range gin {
			gin[i] = specials[i%len(specials)] // overwritten: AXPYRows zeroes first
		}
		ginSq := AXPYRows(gin, coef, rows)
		out := append(append(dots, gin...), ginSq, SumScaledNorm2Sq(coef, x))
		if kernel {
			got = out
		} else {
			want = out
		}
	})
	if ran {
		sameBits(t, fmt.Sprintf("k+1=%d n=%d: dots, GIn, ‖GIn‖², Σ‖c·x‖²", len(rows), len(x)), got, want)
	}
	dots := make([]float64, len(rows))
	for i, r := range rows {
		dots[i] = Dot(r, x)
	}
	sameBits(t, "DotRows against Dot", want[:len(rows)], dots)
	// A NaN sum's payload depends on how each loop's adds were compiled
	// (DESIGN §12), so here any NaN matches any NaN.
	var plain float64
	for _, c := range coef {
		plain += ScaledNorm2Sq(c, x)
	}
	if sq := want[len(want)-1]; math.Float64bits(sq) != math.Float64bits(plain) && (sq == sq || plain == plain) {
		t.Fatalf("k+1=%d n=%d coef=%v: SumScaledNorm2Sq %v (%#x), plain sum %v (%#x)", len(coef), len(x), coef,
			sq, math.Float64bits(sq), plain, math.Float64bits(plain))
	}
	return ran
}

// tiny scales coefficients into the range where fl(c·x[d])² is
// subnormal or rounds to zero.
var tiny = []float64{1, 0x1p-520, 0x1p-540, 0x1p-560, 0x1p-568, 0x1p-575, 0x1p-600, 0x1p-1050}

// TestRowKernelsMatchGo covers k+1 from 1 to 17 (more than two groups of
// eight lanes) and every length 0–300, with ±0, subnormals, ±Inf and NaN
// payloads in x, the rows and the coefficients in two of three cases, and
// coefficients scaled by tiny in the third. Then it walks the edges of
// SumScaledNorm2Sq's tiny-row skip (skipCoefs) at every tail length, each
// also with a NaN or ±Inf put into x and into the coefficients.
func TestRowKernelsMatchGo(t *testing.T) {
	var ran bool
	for k1 := 1; k1 <= 17; k1++ {
		for n := 0; n <= 300; n++ {
			seed := uint64(k1*1000 + n)
			x := fill(n, seed)
			coef := fill(k1, seed+7)
			rows := make([][]float64, k1)
			for i := range rows {
				rows[i] = fill(n, seed+uint64(100*i)+13)
			}
			if (n+k1)%3 != 0 {
				for i := (n + k1) % 4; i < n; i += 3 + k1%4 {
					x[i] = specials[(i+k1)%len(specials)]
					r := rows[(i*5)%k1]
					r[(i*7)%n] = specials[(i*3+n)%len(specials)]
				}
				coef[n%k1] = specials[(n/3+k1)%len(specials)]
			} else {
				// Coefficients that make some scaled squares subnormal
				// (x here is at most about 2^30), all of them round to
				// +0, or are subnormal themselves.
				for i := range coef {
					coef[i] *= tiny[(i+n)%len(tiny)]
				}
			}
			ran = rowsCase(t, x, coef, rows)
		}
	}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), specials[10], specials[13]}
	for _, k1 := range []int{1, 2, 3, 6, 8, 9, 17} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 127, 128, 129, 130, 131, 300} {
			seed := uint64(k1*1000 + n + 500)
			x := fill(n, seed)
			for i := range x {
				x[i] = math.Ldexp(x[i], -29) // |x[d]| ≤ 1
			}
			rows := make([][]float64, k1)
			for i := range rows {
				rows[i] = fill(n, seed+uint64(100*i)+13)
			}
			for _, coef := range skipCoefs(x, k1, seed) {
				ran = rowsCase(t, x, coef, rows)
				// A NaN or ±Inf anywhere turns the skip off.
				for i, v := range nonFinite {
					if n > 0 {
						xs := append([]float64(nil), x...)
						xs[(i*7)%n] = v
						rowsCase(t, xs, coef, rows)
					}
					cs := append([]float64(nil), coef...)
					cs[i%k1] = v
					rowsCase(t, x, cs, rows)
				}
			}
		}
	}
	if ran {
		t.Log("compared the AVX-512 row kernels with the Go loops")
	} else {
		t.Log("no AVX-512 on this host: only the Go loops ran, kernel side skipped")
	}
}

// skipCoefs returns coefficient vectors of k1 rows over x (|x[d]| ≤ 1)
// around SumScaledNorm2Sq's tiny-row skip, with M = max_d |x[d]|:
//   - a tiny first row, all rows tiny, a zero first row, zero rows;
//   - first rows whose |c|·M lies at 1–8 times 2⁻⁵³⁸, under which the
//     row's sum is +0;
//   - a first row whose square sum lands one ulp of c₀ under and at 2^e
//     times the absorption cutoff n·2⁻⁹⁵⁵, for e from −80 to 5.
//
// The later rows mix ordinary coefficients with ones whose |c|·M lies
// just under and just over 2⁻⁵⁰⁵ and deeper in the subnormal range.
func skipCoefs(x []float64, k1 int, seed uint64) [][]float64 {
	m := 0.0
	for _, v := range x {
		m = max(m, math.Abs(v))
	}
	// below returns the largest c with fl(c·M) < b (any c when M = 0).
	below := func(b float64) float64 {
		if m == 0 {
			return 1
		}
		c := b / m
		for c*m >= b {
			c = math.Nextafter(c, 0)
		}
		return c
	}
	edge, zero := below(0x1p-505), below(0x1p-538)
	over := math.Nextafter(edge, 1)
	tail := []float64{edge, -over, 0x1p-520, -0x1p-530, 0, 0x1p-540, -edge / 3}
	base := fill(k1, seed+7)
	for i := range base {
		base[i] = math.Ldexp(base[i], -20)
	}
	shape := func(first float64, rest func(t int) float64) []float64 {
		c := make([]float64, k1)
		c[0] = first
		for t := 1; t < k1; t++ {
			c[t] = rest(t)
		}
		return c
	}
	mixed := func(t int) float64 {
		if t%2 == 1 {
			return tail[(t/2)%len(tail)]
		}
		return base[t]
	}
	out := [][]float64{
		shape(0x1p-515, mixed),
		shape(-edge, func(t int) float64 { return tail[t%len(tail)] }),
		shape(0, mixed),
		shape(0, func(int) float64 { return 0 }),
		shape(0, func(t int) float64 { return tail[(t+4)%len(tail)] }),
	}
	// First rows around the bound under which every square rounds to +0.
	for _, f := range []float64{1, 2, 4, 8} {
		out = append(out, shape(f*zero, mixed), shape(-math.Nextafter(f*zero, 1), mixed))
	}
	if n2 := Norm2Sq(x); n2 > 0 {
		cut := float64(len(x)) * 0x1p-955
		for _, e := range []int{-80, -60, -55, -54, -53, -52, -50, -40, -20, -2, -1, 0, 1, 5} {
			target := math.Ldexp(cut, e)
			c := math.Sqrt(target / n2)
			for c > 0 && ScaledNorm2Sq(c, x) >= target {
				c = math.Nextafter(c, 0)
			}
			for ScaledNorm2Sq(math.Nextafter(c, 1), x) < target {
				c = math.Nextafter(c, 1)
			}
			rest := func(t int) float64 { return tail[(t-1)%len(tail)] }
			out = append(out, shape(c, rest), shape(math.Nextafter(c, 1), rest))
		}
	}
	return out
}

// FuzzRowKernels compares the paths on raw bit patterns: the first byte
// picks k+1 (1–17), the next two the length (0–300), and every float of
// x, the rows and the coefficients is any 64-bit value. The last seeds
// are examples with a coefficient that makes squares subnormal, after
// the ordinary ones (the tiny-row skip leaves it out) and first.
func FuzzRowKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{5, 128, 0}, make([]byte, 8*(128*7+6))...))
	raw := []byte{16, 19, 0}
	for i := 0; i < 19*18+17; i++ {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(specials[(i*5)%len(specials)]))
	}
	f.Add(raw)
	for _, coef := range [][]float64{{0.9, -0.31, 0.17, 1e-155, -0.42, 0.08}, {-3e-156, 0, 0.5, 1e-170, 2e-158, -0.25}} {
		const n = 130
		raw := []byte{byte(len(coef) - 1), n, 0}
		vals := fill(n*(len(coef)+1), 17)
		for i := range vals[:n] {
			vals[i] = math.Ldexp(vals[i], -35) // |v_I| up to about 2⁻⁶
		}
		for _, v := range append(vals, coef...) {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k1, n := 1, 0
		if len(data) >= 3 {
			k1 = 1 + int(data[0])%17
			n = int(binary.LittleEndian.Uint16(data[1:])) % 301
		}
		word := func(i int) float64 {
			if off := 3 + 8*i; off+8 <= len(data) {
				return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
			return float64(i)*0.75 - 3
		}
		x, coef := make([]float64, n), make([]float64, k1)
		rows := make([][]float64, k1)
		w := 0
		for i := range x {
			x[i] = word(w)
			w++
		}
		for r := range rows {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				rows[r][i] = word(w)
				w++
			}
		}
		for i := range coef {
			coef[i] = word(w)
			w++
		}
		rowsCase(t, x, coef, rows)
	})
}
