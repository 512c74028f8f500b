// Package cpu is the one probe of the CPU features that the assembly
// bodies of internal/tensor and internal/xrand select on.
package cpu

// AVX512F: the CPU has AVX-512F and the OS saves its opmask and ZMM
// state; AVX512DQ: AVX-512DQ as well. Both stay false off amd64.
var AVX512F, AVX512DQ bool
