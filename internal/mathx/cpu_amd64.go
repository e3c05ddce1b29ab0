package mathx

// UseAVX512 selects the AVX-512 kernels: set at init when the CPU has
// AVX512F and AVX512DQ and the OS saves the zmm state. Each kernel gives
// the bits of the Go loop it stands in for, so the selection changes no
// result; tests clear it to run the Go loops on the same host.
var UseAVX512 = hasAVX512()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS
// saves on a context switch.
func xgetbv0() uint32

//go:noescape
func scaledAVX512(dst, x *float64, n int, f, c float64, add bool)

//go:noescape
func dotRowsAVX512(out *[8]float64, x *float64, rows *[8]*float64, pairs, n int)

//go:noescape
func scaledNorm2SqAVX512(out, coef *[8]float64, x *float64, n int)

//go:noescape
func axpyRowsAVX512(dst, coef *float64, rows *[]float64, k, n int) float64

// hasAVX512 reports AVX512F (leaf 7 EBX bit 16) and AVX512DQ (bit 17),
// enabled by the OS: OSXSAVE (leaf 1 ECX bit 27) set, and XCR0 saving
// SSE, AVX, the opmask and both halves of the zmm registers (0xe6).
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || xgetbv0()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<17) != 0
}

// scaledWide runs the kernel over the longest multiple-of-8 prefix of dst
// when UseAVX512 is set and returns its length; the caller's Go loop
// finishes the rest.
func scaledWide(dst, x []float64, f, c float64, add bool) int {
	n := len(dst) &^ 7
	if !UseAVX512 || n == 0 {
		return 0
	}
	scaledAVX512(&dst[0], &x[0], n, f, c, add)
	return n
}

// dotRowsWide runs the kernel for the first min(8, len(rows)) rows over
// the longest multiple-of-4 prefix of x when UseAVX512 is set, leaving
// each row's combined lane sum in out, and returns the row count and the
// prefix length; 0, 0 otherwise. Every row is len(x) long.
func dotRowsWide(out *[8]float64, x []float64, rows [][]float64) (k, n int) {
	n = len(x) &^ 3
	if !UseAVX512 || n == 0 || len(rows) == 0 {
		return 0, 0
	}
	k = min(len(rows), 8)
	var p [8]*float64
	for t := range p[:(k+1)&^1] {
		p[t] = &rows[min(t, k-1)][0] // an odd last pair repeats its row
	}
	dotRowsAVX512(out, &x[0], &p, (k+1)/2, n)
	return k, n
}

// scaledNorm2SqWide is dotRowsWide for ScaledNorm2Sq: the first
// min(8, len(coef)) coefficients' combined lane sums over x's longest
// multiple-of-4 prefix. A tiny row's coefficient (isTinyRow with m) goes
// in as 0, which forms no subnormal; its lane is left to the caller.
func scaledNorm2SqWide(out *[8]float64, coef, x []float64, m float64) (k, n int) {
	n = len(x) &^ 3
	if !UseAVX512 || n == 0 || len(coef) == 0 {
		return 0, 0
	}
	var c [8]float64
	k = copy(c[:], coef)
	for t, ct := range c[:k] {
		if isTinyRow(ct, m) {
			c[t] = 0
		}
	}
	scaledNorm2SqAVX512(out, &c, &x[0], n)
	return k, n
}

// axpyRowsWide runs the AXPYRows kernel over the longest multiple-of-4
// prefix of dst when UseAVX512 is set, and returns its length and its
// Norm2Sq before the tail; 0, 0 otherwise. Every row is len(dst) long.
func axpyRowsWide(dst, coef []float64, rows [][]float64) (n int, sq float64) {
	n = len(dst) &^ 3
	if !UseAVX512 || n == 0 || len(coef) == 0 {
		return 0, 0
	}
	return n, axpyRowsAVX512(&dst[0], &coef[0], &rows[0], len(coef), n)
}
