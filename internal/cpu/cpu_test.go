package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX512ProbeMatchesCPUInfo: on Linux, AVX512F agrees with the
// avx512f flag the kernel lists in /proc/cpuinfo, which it sets only
// for a CPU that has AVX-512F when it also saves the ZMM state, and
// AVX512DQ with avx512f and avx512dq both listed.
func TestAVX512ProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no /proc/cpuinfo avx512 flags to compare on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var f, dq bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			f, dq = strings.Contains(flags+" ", " avx512f "), strings.Contains(flags+" ", " avx512dq ")
			break
		}
	}
	if AVX512F != f || AVX512DQ != (f && dq) {
		t.Fatalf("AVX512F = %v, AVX512DQ = %v; /proc/cpuinfo lists avx512f: %v, avx512dq: %v", AVX512F, AVX512DQ, f, dq)
	}
	t.Logf("AVX-512F: %v, AVX-512DQ: %v", f, dq)
}
