package cpu

func init()               { AVX512F, AVX512DQ = probe() }
func probe() (f, dq bool) // cpu_amd64.s: CPUID and XGETBV
