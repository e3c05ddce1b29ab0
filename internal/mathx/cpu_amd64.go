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
