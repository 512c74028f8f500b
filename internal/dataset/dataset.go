// Package dataset synthesizes the CIFAR-10 stand-in ("SynthCIFAR") used
// throughout the reproduction, and provides the partitioning utilities
// federated experiments need.
//
// CIFAR-10 itself cannot be shipped (the build is offline), so the
// generator is engineered to reproduce the property of CIFAR-10 that the
// paper's conclusions rest on: a small MLP plateaus far below a
// convolutional model. Each class is defined by an oriented sinusoidal
// texture patch stamped at a random position — information an MLP cannot
// exploit well (it has no translation invariance) but a CNN can — plus a
// color hue shared between pairs of classes, which is linearly separable
// up to the pair and gives the MLP its middling accuracy band. Pixel
// noise, brightness jitter, and label noise bound the attainable accuracy
// of both models.
package dataset

import (
	"fmt"
	"math"

	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// Config controls the synthetic image distribution.
type Config struct {
	// Classes is the number of labels (paper: 10).
	Classes int
	// ImageC/H/W give the image geometry (paper: 3x32x32).
	ImageC, ImageH, ImageW int
	// PatchSize is the side of the class texture patch.
	PatchSize int
	// PatchAmp scales the texture patch.
	PatchAmp float64
	// NoiseStd is the background pixel noise.
	NoiseStd float64
	// HueGroups is how many distinct hues are shared among classes;
	// classes c and c+1 share hue c/2 when HueGroups == Classes/2, which
	// caps a color-only classifier at 2/Classes per hue.
	HueGroups int
	// HueAmp scales the hue shift.
	HueAmp float64
	// BrightnessStd is a per-image global brightness jitter.
	BrightnessStd float64
	// ChannelJitterStd is a per-image, per-channel offset jitter. It
	// corrupts single-image hue estimation, lowering the ceiling of a
	// color-only classifier and slowing its convergence.
	ChannelJitterStd float64
	// GlobalAmp scales a faint full-image sinusoidal pattern unique to
	// each class at a fixed position. Its per-pixel SNR is tiny, so
	// learning the matched filter takes many epochs — this is what
	// gives simple models the paper's gradual accuracy climb.
	GlobalAmp float64
	// LabelNoise is the probability a sample's label is resampled
	// uniformly, bounding attainable accuracy.
	LabelNoise float64
	// TextureFamily selects the texture bank. Families 0 and 1 have
	// related but distinct oriented textures; pretraining on family 1
	// and fine-tuning on family 0 emulates the paper's transfer
	// learning from ImageNet to CIFAR-10.
	TextureFamily int
}

// DefaultConfig returns the distribution used by the paper-reproduction
// experiments (calibrated so SimpleNN lands in the paper's ~0.6 band and
// EffNetSim in the ~0.85 band).
func DefaultConfig() Config {
	return Config{
		Classes:          nn.NumClass,
		ImageC:           nn.ImageC,
		ImageH:           nn.ImageH,
		ImageW:           nn.ImageW,
		PatchSize:        8,
		PatchAmp:         0.75,
		NoiseStd:         0.60,
		HueGroups:        6,
		HueAmp:           0.12,
		BrightnessStd:    0.30,
		ChannelJitterStd: 0.25,
		GlobalAmp:        0.05,
		LabelNoise:       0.03,
		TextureFamily:    0,
	}
}

// Validate returns an error for degenerate configurations.
func (c Config) Validate() error {
	switch {
	case c.Classes <= 1:
		return fmt.Errorf("dataset: need at least 2 classes, got %d", c.Classes)
	case c.ImageC <= 0 || c.ImageH <= 0 || c.ImageW <= 0:
		return fmt.Errorf("dataset: bad image geometry %dx%dx%d", c.ImageC, c.ImageH, c.ImageW)
	case c.PatchSize <= 0 || c.PatchSize > c.ImageH || c.PatchSize > c.ImageW:
		return fmt.Errorf("dataset: patch size %d does not fit %dx%d", c.PatchSize, c.ImageH, c.ImageW)
	case c.HueGroups <= 0 || c.HueGroups > c.Classes:
		return fmt.Errorf("dataset: hue groups %d out of range", c.HueGroups)
	case c.LabelNoise < 0 || c.LabelNoise >= 1:
		return fmt.Errorf("dataset: label noise %v out of [0,1)", c.LabelNoise)
	}
	return nil
}

// ImageLen returns the flattened sample length.
func (c Config) ImageLen() int { return c.ImageC * c.ImageH * c.ImageW }

// Set is a labeled dataset: one flattened CHW image per row of X.
type Set struct {
	X       *tensor.Dense
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (s *Set) Len() int { return s.X.Rows }

// Subset gathers the given row indices into a new independent Set.
func (s *Set) Subset(idx []int) *Set {
	out := &Set{X: tensor.New(len(idx), s.X.Cols), Y: make([]int, len(idx)), Classes: s.Classes}
	for i, src := range idx {
		copy(out.X.Row(i), s.X.Row(src))
		out.Y[i] = s.Y[src]
	}
	return out
}

// texture returns the PatchSize x PatchSize oriented sinusoidal texture
// for a class. Textures are deterministic pure functions of
// (class, family, size).
func (c Config) texture(class int) []float64 {
	p := c.PatchSize
	out := make([]float64, p*p)
	// Orientation spreads classes over the half-circle; the family
	// offsets both angle and frequency so family-1 textures exercise
	// the same feature space without being identical.
	// Family 1 textures are mildly rotated/re-tuned versions of family 0:
	// close enough that convolutional features transfer (the paper's
	// ImageNet -> CIFAR-10 situation), distinct enough that fine-tuning
	// still has work to do.
	angle := math.Pi * (float64(class) + 0.18*float64(c.TextureFamily)) / float64(c.Classes)
	freq := 1.5 + float64(class%3) + 0.2*float64(c.TextureFamily)
	phase := 0.7 * float64(class)
	kx := math.Cos(angle) * freq * 2 * math.Pi / float64(p)
	ky := math.Sin(angle) * freq * 2 * math.Pi / float64(p)
	for y := 0; y < p; y++ {
		for x := 0; x < p; x++ {
			out[y*p+x] = math.Sin(kx*float64(x) + ky*float64(y) + phase)
		}
	}
	return out
}

// globalPattern returns the faint full-image sinusoid of a class,
// deterministic per (class, family, geometry).
func (c Config) globalPattern(class int) []float64 {
	out := make([]float64, c.ImageH*c.ImageW)
	angle := math.Pi * (float64(class) + 0.37 + 0.18*float64(c.TextureFamily)) / float64(c.Classes)
	freq := 3.0 + float64(class%4)
	kx := math.Cos(angle) * freq * 2 * math.Pi / float64(c.ImageW)
	ky := math.Sin(angle) * freq * 2 * math.Pi / float64(c.ImageH)
	phase := 1.3 * float64(class)
	for y := 0; y < c.ImageH; y++ {
		for x := 0; x < c.ImageW; x++ {
			out[y*c.ImageW+x] = math.Sin(kx*float64(x) + ky*float64(y) + phase)
		}
	}
	return out
}

// hue returns the per-channel color shift of a class's hue group.
func (c Config) hue(class int) []float64 {
	group := class % c.HueGroups
	out := make([]float64, c.ImageC)
	for ch := 0; ch < c.ImageC; ch++ {
		out[ch] = math.Cos(2*math.Pi*float64(group)/float64(c.HueGroups) + 2*math.Pi*float64(ch)/float64(c.ImageC))
	}
	return out
}

// Generate synthesizes n labeled samples with (approximately) balanced
// classes, drawing all randomness from rng. It panics on an invalid
// config — generation parameters are programmer-chosen, not user input.
func Generate(cfg Config, n int, rng *xrand.RNG) *Set {
	return GenerateSets(1, cfg, []Draw{{N: n, RNG: rng}})[0]
}

// Draw is one set of a GenerateSets pass: N samples from RNG.
type Draw struct {
	N   int
	RNG *xrand.RNG
}

// GenerateSets synthesizes one set per draw on at most workers
// goroutines (par.Workers convention), one sample per work item. The
// sets, and every draw's RNG end state, are bit-identical to calling
// Generate for each draw in order: splitmix64 is random-access, so a
// sequential offsets pass finds each sample's start state without
// drawing the sample (DESIGN.md §5, "A data set is random-access").
func GenerateSets(workers int, cfg Config, draws []Draw) []*Set {
	return newPass(cfg, draws).run(workers)
}

// pass is one GenerateSets call after its offsets pass. A set's Y holds
// each sample's shuffled class until the sample replaces it with its
// label.
type pass struct {
	cfg                     Config
	textures, hues, globals [][]float64 // by class, built once a pass
	sets                    []*Set
	// starts[d][i] is draw d's stream at the start of sample i;
	// starts[d][N] its end state.
	starts [][]xrand.RNG
	items  []sampleRef // every sample of every draw, in order
}

type sampleRef struct{ draw, i int }

// newPass shuffles each draw's classes on its RNG, records every
// sample's start state by skipping exactly what sample draws (one
// brightness, per channel one jitter and H·W pixel normals, two Intn,
// and the label-noise Bool plus its Intn when it fires), and leaves each
// draw's RNG at its end state.
func newPass(cfg Config, draws []Draw) *pass {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &pass{cfg: cfg, textures: make([][]float64, cfg.Classes), hues: make([][]float64, cfg.Classes),
		globals: make([][]float64, cfg.Classes), sets: make([]*Set, len(draws)), starts: make([][]xrand.RNG, len(draws))}
	for c := 0; c < cfg.Classes; c++ {
		p.textures[c], p.hues[c], p.globals[c] = cfg.texture(c), cfg.hue(c), cfg.globalPattern(c)
	}
	normals := 1 + cfg.ImageC*(1+cfg.ImageH*cfg.ImageW)
	for d, dr := range draws {
		s := &Set{X: tensor.New(dr.N, cfg.ImageLen()), Y: make([]int, dr.N), Classes: cfg.Classes}
		for i := range s.Y {
			s.Y[i] = i % cfg.Classes // balanced...
		}
		dr.RNG.ShuffleInts(s.Y) // ...in random order
		p.sets[d] = s
		starts := make([]xrand.RNG, dr.N+1)
		for i := range dr.N {
			starts[i] = *dr.RNG
			p.items = append(p.items, sampleRef{d, i})
			dr.RNG.SkipNormals(normals)
			dr.RNG.Skip(2)
			if cfg.LabelNoise > 0 && dr.RNG.Bool(cfg.LabelNoise) {
				dr.RNG.Skip(1)
			}
		}
		starts[dr.N] = *dr.RNG
		p.starts[d] = starts
	}
	return p
}

// run draws every sample from its recorded start state. The drift guard
// panics if a sample does not end where the offsets pass says the next
// one starts, so the two can never silently disagree.
func (p *pass) run(workers int) []*Set {
	// No item returns an error; a drift panic is re-raised here.
	_ = par.ForEach(workers, len(p.items), func(k int) error {
		it := p.items[k]
		rng := p.starts[it.draw][it.i]
		s := p.sets[it.draw]
		s.Y[it.i] = p.sample(s.X.Row(it.i), s.Y[it.i], &rng)
		if rng != p.starts[it.draw][it.i+1] {
			panic(fmt.Sprintf("dataset: draw %d sample %d drifted from the offsets pass", it.draw, it.i))
		}
		return nil
	})
	return p.sets
}

// sample draws one sample of class cls into row from rng and returns
// its label. newPass mirrors its draws; keep the two in step.
func (p *pass) sample(row []float32, cls int, rng *xrand.RNG) int {
	cfg := p.cfg
	plane := cfg.ImageH * cfg.ImageW
	patch := cfg.PatchSize
	// Background noise + hue + brightness + channel jitter + the
	// faint class-specific global pattern.
	brightness := rng.NormFloat64() * cfg.BrightnessStd
	glob := p.globals[cls]
	for ch := 0; ch < cfg.ImageC; ch++ {
		base := float32(p.hues[cls][ch]*cfg.HueAmp + brightness + rng.NormFloat64()*cfg.ChannelJitterStd)
		pl := row[ch*plane : (ch+1)*plane]
		for j := range pl {
			pl[j] = base + float32(glob[j]*cfg.GlobalAmp) + float32(rng.NormFloat64()*cfg.NoiseStd)
		}
	}
	// Stamp the class texture at a random position, on all channels
	// (a luminance pattern, so color carries no extra patch info).
	py := rng.Intn(cfg.ImageH - patch + 1)
	px := rng.Intn(cfg.ImageW - patch + 1)
	tex := p.textures[cls]
	for ch := 0; ch < cfg.ImageC; ch++ {
		pl := row[ch*plane : (ch+1)*plane]
		for dy := 0; dy < patch; dy++ {
			base := (py+dy)*cfg.ImageW + px
			trow := tex[dy*patch:]
			for dx := 0; dx < patch; dx++ {
				pl[base+dx] += float32(trow[dx] * cfg.PatchAmp)
			}
		}
	}
	// Label noise: resample uniformly with probability LabelNoise.
	y := cls
	if cfg.LabelNoise > 0 && rng.Bool(cfg.LabelNoise) {
		y = rng.Intn(cfg.Classes)
	}
	return y
}

// PartitionIID deals the set round-robin into parts equal shards after a
// shuffle, giving each shard the same distribution.
func PartitionIID(s *Set, parts int, rng *xrand.RNG) []*Set {
	if parts <= 0 {
		panic("dataset: non-positive part count")
	}
	perm := rng.Perm(s.Len())
	idxs := make([][]int, parts)
	for i, src := range perm {
		idxs[i%parts] = append(idxs[i%parts], src)
	}
	out := make([]*Set, parts)
	for i, idx := range idxs {
		out[i] = s.Subset(idx)
	}
	return out
}

// PartitionDirichlet splits the set with per-class Dirichlet(alpha)
// proportions across parts — the standard federated non-IID benchmark
// protocol. Small alpha yields highly skewed shards; alpha -> inf
// approaches IID.
func PartitionDirichlet(s *Set, parts int, alpha float64, rng *xrand.RNG) []*Set {
	if parts <= 0 {
		panic("dataset: non-positive part count")
	}
	if alpha <= 0 {
		panic("dataset: Dirichlet alpha must be positive")
	}
	// Gather indices per class, shuffled.
	byClass := make([][]int, s.Classes)
	for i, y := range s.Y {
		byClass[y] = append(byClass[y], i)
	}
	idxs := make([][]int, parts)
	for _, members := range byClass {
		rng.ShuffleInts(members)
		props := dirichlet(rng, alpha, parts)
		// Convert proportions to contiguous cut points.
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
	out := make([]*Set, parts)
	for i, idx := range idxs {
		rng.ShuffleInts(idx)
		out[i] = s.Subset(idx)
	}
	return out
}

// dirichlet samples a symmetric Dirichlet(alpha) vector of length n via
// normalized Gamma variates (Marsaglia-Tsang).
func dirichlet(rng *xrand.RNG, alpha float64, n int) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		g := gamma(rng, alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gamma samples Gamma(shape, 1) using Marsaglia-Tsang, with the boost
// trick for shape < 1.
func gamma(rng *xrand.RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		if u == 0 {
			u = 0.5
		}
		return gamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// PoisonLabelFlip returns a copy of s in which a fraction frac of the
// labels are rotated to (y+1) mod Classes — the classic label-flipping
// poisoning attack used to exercise the paper's abnormal-model filtering.
func PoisonLabelFlip(s *Set, frac float64, rng *xrand.RNG) *Set {
	out := s.Subset(rangeInts(s.Len()))
	for i := range out.Y {
		if rng.Bool(frac) {
			out.Y[i] = (out.Y[i] + 1) % out.Classes
		}
	}
	return out
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
