package dataset

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejectsBad(t *testing.T) {
	cases := map[string]func(*Config){
		"one class":       func(c *Config) { c.Classes = 1 },
		"zero channels":   func(c *Config) { c.ImageC = 0 },
		"huge patch":      func(c *Config) { c.PatchSize = 1000 },
		"zero patch":      func(c *Config) { c.PatchSize = 0 },
		"bad hue groups":  func(c *Config) { c.HueGroups = 0 },
		"too many hues":   func(c *Config) { c.HueGroups = 99 },
		"label noise 1.0": func(c *Config) { c.LabelNoise = 1.0 },
		"negative noise":  func(c *Config) { c.LabelNoise = -0.1 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(cfg, 50, xrand.New(7))
	b := Generate(cfg, 50, xrand.New(7))
	if !a.X.Equal(b.X) {
		t.Fatal("images differ across identical seeds")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
	c := Generate(cfg, 50, xrand.New(8))
	if a.X.Equal(c.X) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateShapeAndLabels(t *testing.T) {
	cfg := DefaultConfig()
	s := Generate(cfg, 100, xrand.New(1))
	if s.Len() != 100 || s.X.Cols != cfg.ImageLen() {
		t.Fatalf("bad shape %dx%d", s.X.Rows, s.X.Cols)
	}
	for _, y := range s.Y {
		if y < 0 || y >= cfg.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
}

// classCounts is a histogram of s's labels.
func classCounts(s *Set) []int {
	counts := make([]int, s.Classes)
	for _, y := range s.Y {
		counts[y]++
	}
	return counts
}

func TestGenerateBalancedClasses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 1000, xrand.New(2))
	counts := classCounts(s)
	for c, n := range counts {
		if n != 100 {
			t.Errorf("class %d has %d samples, want 100", c, n)
		}
	}
}

// generateReference is Generate as one sequential stream: the labels'
// shuffle, then every sample drawn after the one before it.
func generateReference(cfg Config, n int, rng *xrand.RNG) *Set {
	p := newPass(cfg, nil) // the class assets, no draws
	s := &Set{X: tensor.New(n, cfg.ImageLen()), Y: make([]int, n), Classes: cfg.Classes}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % cfg.Classes
	}
	rng.ShuffleInts(labels)
	for i := range n {
		s.Y[i] = p.sample(s.X.Row(i), labels[i], rng)
	}
	return s
}

// oddConfig is a 1x5x5 geometry: 27 normals a sample, so every other
// sample starts with a Box-Muller spare pending.
func oddConfig() Config {
	cfg := DefaultConfig()
	cfg.ImageC, cfg.ImageH, cfg.ImageW, cfg.PatchSize, cfg.HueGroups = 1, 5, 5, 3, 5
	return cfg
}

// TestGenerateSetsBitEqual: at any worker count, a GenerateSets pass is
// the sequential stream of each draw in order — every sample's bits,
// every label, and every draw's RNG end state — for an even and an odd
// per-sample normal count, with and without label noise, and with empty,
// one-sample and spare-pending draws.
func TestGenerateSetsBitEqual(t *testing.T) {
	for _, geo := range []struct {
		name  string
		cfg   Config
		sizes []int
	}{
		{"3x32x32", DefaultConfig(), []int{7, 0, 1, 12, 2}},
		{"1x5x5", oddConfig(), []int{100, 0, 1, 333, 7, 2}},
	} {
		for _, noise := range []float64{0, 0.03, 0.5} {
			cfg := geo.cfg
			cfg.LabelNoise = noise
			streams := func() []*xrand.RNG {
				out := make([]*xrand.RNG, len(geo.sizes))
				for d := range out {
					out[d] = xrand.New(uint64(d + 1)).Derive("draw")
				}
				out[len(out)-1].NormFloat64() // enter with a spare pending
				return out
			}
			wantRNG := streams()
			want := make([]*Set, len(geo.sizes))
			for d, n := range geo.sizes {
				want[d] = generateReference(cfg, n, wantRNG[d])
			}
			for _, workers := range []int{1, 2, 3, 8} {
				gotRNG := streams()
				draws := make([]Draw, len(geo.sizes))
				for d, n := range geo.sizes {
					draws[d] = Draw{N: n, RNG: gotRNG[d]}
				}
				got := GenerateSets(workers, cfg, draws)
				for d := range draws {
					where := fmt.Sprintf("%s noise %v workers %d draw %d (N=%d)", geo.name, noise, workers, d, geo.sizes[d])
					if !slices.EqualFunc(got[d].X.Data, want[d].X.Data, func(a, b float32) bool {
						return math.Float32bits(a) == math.Float32bits(b)
					}) {
						t.Fatalf("%s: samples differ from the sequential stream", where)
					}
					if !slices.Equal(got[d].Y, want[d].Y) {
						t.Fatalf("%s: labels differ from the sequential stream", where)
					}
					if g, w := *gotRNG[d], *wantRNG[d]; g != w || g.NormFloat64() != w.NormFloat64() {
						t.Fatalf("%s: RNG end state differs from the sequential stream", where)
					}
				}
			}
		}
	}
}

// TestGenerateSetsDriftGuard: a sample that does not end where the
// offsets pass says the next one starts panics, naming the draw and the
// sample, at any worker count.
func TestGenerateSetsDriftGuard(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := newPass(oddConfig(), []Draw{{N: 3, RNG: xrand.New(1)}, {N: 5, RNG: xrand.New(2)}})
		p.starts[1][3].Uint64() // desynchronise draw 1's sample 3
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			p.run(workers)
			return ""
		}()
		if !strings.Contains(got, "draw 1 sample 2 drifted") {
			t.Errorf("workers %d: panic %q, want one naming draw 1 sample 2", workers, got)
		}
	}
}

func TestTexturesDistinctAcrossClasses(t *testing.T) {
	cfg := DefaultConfig()
	for a := 0; a < cfg.Classes; a++ {
		for b := a + 1; b < cfg.Classes; b++ {
			ta, tb := cfg.texture(a), cfg.texture(b)
			var diff float64
			for i := range ta {
				diff += math.Abs(ta[i] - tb[i])
			}
			if diff < 1 {
				t.Errorf("textures %d and %d nearly identical (L1=%v)", a, b, diff)
			}
		}
	}
}

func TestTextureFamiliesDiffer(t *testing.T) {
	c0 := DefaultConfig()
	c1 := DefaultConfig()
	c1.TextureFamily = 1
	for cls := 0; cls < c0.Classes; cls++ {
		ta, tb := c0.texture(cls), c1.texture(cls)
		var diff float64
		for i := range ta {
			diff += math.Abs(ta[i] - tb[i])
		}
		if diff < 0.5 {
			t.Errorf("class %d: families too similar (L1=%v)", cls, diff)
		}
	}
}

func TestSubsetIsDeepCopy(t *testing.T) {
	s := Generate(DefaultConfig(), 10, xrand.New(3))
	sub := s.Subset([]int{0, 1})
	sub.X.Data[0] = 42
	sub.Y[0] = 1
	if s.X.Data[0] == 42 {
		t.Fatal("subset aliases parent storage")
	}
}

func TestPartitionIID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 900, xrand.New(5))
	parts := PartitionIID(s, 3, xrand.New(6))
	total := 0
	for _, p := range parts {
		total += p.Len()
		// Each IID shard should be roughly class-balanced.
		for c, n := range classCounts(p) {
			if n < 15 || n > 45 {
				t.Errorf("shard class %d count %d far from 30", c, n)
			}
		}
	}
	if total != 900 {
		t.Fatalf("partition lost samples: %d", total)
	}
}

func TestPartitionDirichletCoversAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 600, xrand.New(7))
	for _, alpha := range []float64{0.1, 1, 100} {
		parts := PartitionDirichlet(s, 3, alpha, xrand.New(8))
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if total != 600 {
			t.Fatalf("alpha=%v: partition lost samples (%d)", alpha, total)
		}
	}
}

func TestPartitionDirichletSkewIncreasesAsAlphaShrinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 2000, xrand.New(9))
	skew := func(alpha float64) float64 {
		parts := PartitionDirichlet(s, 4, alpha, xrand.New(10))
		// Mean absolute deviation of class counts from perfectly even.
		var dev float64
		for _, p := range parts {
			for _, n := range classCounts(p) {
				dev += math.Abs(float64(n) - 50)
			}
		}
		return dev
	}
	if skew(0.1) <= skew(100) {
		t.Fatalf("Dirichlet skew: alpha=0.1 (%v) should exceed alpha=100 (%v)", skew(0.1), skew(100))
	}
}

func TestPoisonLabelFlip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 1000, xrand.New(11))
	poisoned := PoisonLabelFlip(s, 0.5, xrand.New(12))
	flipped := 0
	for i := range s.Y {
		if s.Y[i] != poisoned.Y[i] {
			flipped++
			if poisoned.Y[i] != (s.Y[i]+1)%cfg.Classes {
				t.Fatal("flip must rotate label by one")
			}
		}
	}
	if flipped < 400 || flipped > 600 {
		t.Fatalf("flipped %d of 1000, want ~500", flipped)
	}
	// Full poison flips everything; zero poison flips nothing.
	all := PoisonLabelFlip(s, 1, xrand.New(13))
	for i := range all.Y {
		if all.Y[i] != (s.Y[i]+1)%cfg.Classes {
			t.Fatal("frac=1 must flip every label")
		}
	}
	none := PoisonLabelFlip(s, 0, xrand.New(14))
	for i := range none.Y {
		if none.Y[i] != s.Y[i] {
			t.Fatal("frac=0 must flip nothing")
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := xrand.New(15)
	for _, alpha := range []float64{0.1, 0.5, 1, 10} {
		for trial := 0; trial < 20; trial++ {
			v := dirichlet(rng, alpha, 5)
			var sum float64
			for _, x := range v {
				if x < 0 {
					t.Fatal("negative Dirichlet component")
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("alpha=%v: sum=%v", alpha, sum)
			}
		}
	}
}

func TestGammaMeanMatchesShape(t *testing.T) {
	rng := xrand.New(16)
	for _, shape := range []float64{0.5, 1, 3} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += gamma(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.08*math.Max(1, shape) {
			t.Errorf("gamma(%v) mean = %v", shape, mean)
		}
	}
}
