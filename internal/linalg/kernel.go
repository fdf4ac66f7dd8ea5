package linalg

import (
	"os"
	"strings"
	"sync/atomic"
)

// microKernel computes one register block of the packed engine:
// C[i0:i0+me, j0:j0+ne] += alpha·Ap·Bp from one packed A micro-panel
// (kc×mr, k-major) and one packed B micro-panel (kc×nr). Padding
// rows/columns in the panels are zero, so implementations may always
// compute the full mr×nr tile and mask only the write-back.
type microKernel func(kc int, pa, pb []float64, alpha float64, c *Mat, i0, j0, me, ne int)

// kernelImpl bundles one micro-kernel implementation with the register
// block shape its packed panels are laid out for and the cache-blocking
// parameters tuned to it. mc must be a multiple of mr and nc a multiple
// of nr so macro-tiles decompose into whole micro-panels.
type kernelImpl struct {
	name       string // reported by MicroKernelName and the benchmarks
	mr, nr     int    // register block: mr rows × nr columns of C
	mc, kc, nc int    // macro-tile blocking (rows of A, inner panel, cols of B)
	kern       microKernel
}

// goKernel is the portable pure-Go implementation: a 4×2 register block
// (the widest spill-free shape on 16 scalar FP registers), always
// available, and the cross-check reference for the assembly kernels.
var goKernel = kernelImpl{
	name: "go-4x2",
	mr:   4, nr: 2,
	mc: 128, kc: 256, nc: 256,
	kern: microKernel4x2,
}

// asmKernel is installed by the per-architecture init (cpu_amd64.go,
// cpu_arm64.go) when the CPU supports it; nil means only the portable
// kernel exists. cpuFeatures is the detected feature list for
// reporting, set by the same init.
var (
	asmKernel   *kernelImpl
	cpuFeatures string
)

// asmOff force-disables the assembly kernels at runtime. It is set at
// startup by the FRAGMD_NOASM environment variable (any non-empty
// value) and togglable through SetAsmEnabled — the seam the test suite
// and the same-run asm↔pure-Go benchmark rows use.
var asmOff atomic.Bool

func init() {
	if os.Getenv("FRAGMD_NOASM") != "" {
		asmOff.Store(true)
	}
}

// activeKernel returns the micro-kernel the packed engine dispatches
// to: the assembly kernel when the CPU supports one and it has not been
// disabled, otherwise the portable Go kernel.
func activeKernel() *kernelImpl {
	if asmKernel != nil && !asmOff.Load() {
		return asmKernel
	}
	return &goKernel
}

// AsmAvailable reports whether a CPU-specific assembly micro-kernel was
// detected and installed for this machine (independent of whether it is
// currently enabled).
func AsmAvailable() bool { return asmKernel != nil }

// AsmEnabled reports whether the packed engine currently dispatches to
// an assembly micro-kernel.
func AsmEnabled() bool { return asmKernel != nil && !asmOff.Load() }

// SetAsmEnabled enables or disables the assembly micro-kernels at
// runtime and returns the previous setting. Disabling falls back to the
// portable pure-Go kernel — the knob behind the FRAGMD_NOASM
// environment variable, the golden-trajectory tests (which pin the
// portable kernel for machine-independent bit-exactness) and the
// same-run asm↔pure-Go benchmark ratio rows. Safe for concurrent use;
// in-flight GEMMs finish on the kernel they started with.
func SetAsmEnabled(on bool) (prev bool) {
	prev = !asmOff.Load()
	asmOff.Store(!on)
	return prev
}

// MicroKernelName returns the name of the micro-kernel the packed
// engine currently dispatches to (e.g. "avx2-6x8", "neon-8x4",
// "go-4x2").
func MicroKernelName() string { return activeKernel().name }

// CPUFeatures returns the detected SIMD feature list relevant to kernel
// dispatch as a comma-separated string (e.g. "avx,fma,avx2,avx512f" or
// "neon"); empty when no features beyond the architecture baseline were
// detected.
func CPUFeatures() string { return cpuFeatures }

// joinFeatures renders a detected-feature list for CPUFeatures.
func joinFeatures(fs []string) string { return strings.Join(fs, ",") }
