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
		p.draws[1].starts[3].Uint64() // desynchronise draw 1's sample 3
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

// splitSets generates n samples from seed gen laid out by sp.
func splitSets(cfg Config, n int, gen uint64, sp Split) []*Set {
	return GenerateSets(1, cfg, []Draw{{N: n, RNG: xrand.New(gen), Split: &sp}})
}

func TestPartitionIID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	parts := splitSets(cfg, 900, 5, Split{Parts: 3, RNG: xrand.New(6)})
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
	for _, alpha := range []float64{0.1, 1, 100} {
		parts := splitSets(cfg, 600, 7, Split{Parts: 3, Alpha: alpha, RNG: xrand.New(8)})
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
	skew := func(alpha float64) float64 {
		parts := splitSets(cfg, 2000, 9, Split{Parts: 4, Alpha: alpha, RNG: xrand.New(10)})
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

// oldPartition is the oracle for a split's layout: the index lists by
// which the copying partition gathered a generated pool into shards,
// from the pool's final labels — a shuffle dealt round-robin at alpha
// 0, else per-class Dirichlet(alpha) cuts with each shard shuffled.
func oldPartition(labels []int, classes, parts int, alpha float64, rng *xrand.RNG) [][]int {
	idxs := make([][]int, parts)
	if alpha == 0 {
		for i, src := range rng.Perm(len(labels)) {
			idxs[i%parts] = append(idxs[i%parts], src)
		}
		return idxs
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	for _, members := range byClass {
		rng.ShuffleInts(members)
		props := dirichlet(rng, alpha, parts)
		start := 0
		for pi := 0; pi < parts; pi++ {
			count := int(props[pi]*float64(len(members)) + 0.5)
			if pi == parts-1 {
				count = len(members) - start
			}
			if start+count > len(members) {
				count = len(members) - start
			}
			idxs[pi] = append(idxs[pi], members[start:start+count]...)
			start += count
		}
	}
	for _, idx := range idxs {
		rng.ShuffleInts(idx)
	}
	return idxs
}

// gather copies the given rows of s into a new Set, as the copying
// partition did.
func gather(s *Set, idx []int) *Set {
	out := &Set{X: tensor.New(len(idx), s.X.Cols), Y: make([]int, len(idx)), Classes: s.Classes}
	for i, src := range idx {
		copy(out.X.Row(i), s.X.Row(src))
		out.Y[i] = s.Y[src]
	}
	return out
}

// TestShardLayoutMatchesGather: a split draw's shards, written in place,
// are bit-equal to generating the pool and gathering its rows by the
// old index lists — IID and Dirichlet, with and without label noise, at
// 1 and 8 workers — between unsplit draws that keep their bits, and
// every shard is capped at its own rows, so appending to one cannot
// write into the next.
func TestShardLayoutMatchesGather(t *testing.T) {
	const n, parts = 150, 4
	for _, alpha := range []float64{0, 0.5} {
		for _, noise := range []float64{0, 0.03} {
			cfg := DefaultConfig()
			cfg.LabelNoise = noise
			pool := Generate(cfg, n, xrand.New(1))
			var want []*Set
			for _, idx := range oldPartition(pool.Y, cfg.Classes, parts, alpha, xrand.New(2)) {
				want = append(want, gather(pool, idx))
			}
			before, after := Generate(cfg, 9, xrand.New(3)), Generate(cfg, 5, xrand.New(4))
			want = append(append([]*Set{before}, want...), after)
			for _, workers := range []int{1, 8} {
				got := GenerateSets(workers, cfg, []Draw{{N: 9, RNG: xrand.New(3)},
					{N: n, RNG: xrand.New(1), Split: &Split{Parts: parts, Alpha: alpha, RNG: xrand.New(2)}},
					{N: 5, RNG: xrand.New(4)}})
				if len(got) != len(want) {
					t.Fatalf("alpha %v noise %v workers %d: %d sets, want %d", alpha, noise, workers, len(got), len(want))
				}
				for k, g := range got {
					where := fmt.Sprintf("alpha %v noise %v workers %d set %d", alpha, noise, workers, k)
					if !slices.EqualFunc(g.X.Data, want[k].X.Data, func(a, b float32) bool {
						return math.Float32bits(a) == math.Float32bits(b)
					}) || g.X.Rows != want[k].X.Rows {
						t.Fatalf("%s: samples differ from the gathered pool", where)
					}
					if !slices.Equal(g.Y, want[k].Y) {
						t.Fatalf("%s: labels differ from the gathered pool", where)
					}
					if cap(g.X.Data) != len(g.X.Data) || cap(g.Y) != len(g.Y) {
						t.Fatalf("%s: cap %d/%d past len %d/%d", where, cap(g.X.Data), cap(g.Y), len(g.X.Data), len(g.Y))
					}
				}
			}
		}
	}
}

// FuzzShardLayout: a split draw's layout maps samples one-to-one onto
// rows, its shard bounds cover [0, n) in order, and each shard holds
// exactly the samples of the old partition's index list, in its order.
func FuzzShardLayout(f *testing.F) {
	f.Add(uint16(60), uint8(8), 0.5, uint64(7))
	f.Add(uint16(900), uint8(3), 0.0, uint64(6))
	f.Add(uint16(0), uint8(1), 100.0, uint64(1))
	f.Add(uint16(5), uint8(9), 0.1, uint64(2))
	f.Fuzz(func(t *testing.T, n16 uint16, parts8 uint8, alpha float64, seed uint64) {
		n, parts := int(n16%3000), int(parts8%64)+1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			t.Skip()
		}
		alpha = math.Mod(math.Abs(alpha), 1000)
		cfg := oddConfig()
		cfg.LabelNoise = 0.5 // labels far from balanced
		p := newPass(cfg, []Draw{{N: n, RNG: xrand.New(seed), Split: &Split{Parts: parts, Alpha: alpha, RNG: xrand.New(seed).Derive("split")}}})
		dp, rows := p.draws[0], make([]int, n)
		for _, it := range p.items {
			rows[it.i] = it.row
		}
		if len(dp.bounds) != parts+1 || dp.bounds[0] != 0 || dp.bounds[parts] != n {
			t.Fatalf("bounds %v do not cover [0, %d) in %d shards", dp.bounds, n, parts)
		}
		labels, seen := make([]int, n), make([]bool, n)
		for i, r := range rows {
			if r < 0 || r >= n || seen[r] {
				t.Fatalf("sample %d maps to row %d, out of range or taken", i, r)
			}
			seen[r], labels[i] = true, dp.set.Y[r]
		}
		for k, idx := range oldPartition(labels, cfg.Classes, parts, alpha, xrand.New(seed).Derive("split")) {
			if lo, hi := dp.bounds[k], dp.bounds[k+1]; hi-lo != len(idx) {
				t.Fatalf("shard %d holds rows [%d, %d), the old partition %d samples", k, lo, hi, len(idx))
			}
			for j, i := range idx {
				if rows[i] != dp.bounds[k]+j {
					t.Fatalf("shard %d sample %d (pool %d) at row %d, want %d", k, j, i, rows[i], dp.bounds[k]+j)
				}
			}
		}
	})
}

func TestPoisonLabelFlip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelNoise = 0
	s := Generate(cfg, 1000, xrand.New(11))
	poisoned := PoisonLabelFlip(s, 0.5, xrand.New(12))
	if poisoned.X != s.X {
		t.Fatal("the poisoned set must share the samples and copy only the labels")
	}
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
