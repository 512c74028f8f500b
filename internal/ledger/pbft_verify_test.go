// White-box tests for the pbft verification rule: the margin and
// reference-score arithmetic pinned case by case, and a fuzz target
// asserting the verifier never panics and stays deterministic on
// arbitrary weight payloads.
package ledger

import (
	"encoding/binary"
	"math"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/nn"
)

// scoreFirst is the stub evaluator the unit cases use: a vector's
// score is its first component.
func scoreFirst(w []float32) float64 {
	if len(w) == 0 {
		return math.NaN()
	}
	return float64(w[0])
}

// scoresOf is what Config.Verify hands pbftVerify for each candidate
// alone: ScoreMean under verify, or with no evaluator under the
// backend's verification-off score, 0 for every well-formed vector.
func scoresOf(batch [][]float32, verify func([]float32) float64) []float64 {
	if verify == nil {
		verify = func([]float32) float64 { return 0 }
	}
	scores := make([]float64, len(batch))
	for i, w := range batch {
		decoded := func(*chain.Transaction) ([]float32, error) {
			if w == nil {
				return nil, nn.ErrCorruptWeights
			}
			return w, nil
		}
		scores[i] = ScoreMean(make([]*chain.Transaction, 1), decoded, verify)
	}
	return scores
}

func TestPBFTVerifyRule(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		batch  [][]float32
		verify func([]float32) float64
		ref    float64
		want   []bool
	}{
		{"empty batch", nil, scoreFirst, nan, []bool{}},
		{"margin splits batch", [][]float32{{0.9}, {0.8}, {0.5}}, scoreFirst, nan, []bool{true, true, false}},
		{"all within margin", [][]float32{{0.9}, {0.76}}, scoreFirst, nan, []bool{true, true}},
		{"sole member vs no reference", [][]float32{{0.5}}, scoreFirst, nan, []bool{true}},
		{"sole member vs committed model", [][]float32{{0.5}}, scoreFirst, 0.9, []bool{false}},
		{"batch may beat the reference", [][]float32{{0.9}, {0.8}}, scoreFirst, 0.2, []bool{true, true}},
		{"corrupt and non-finite rejected", [][]float32{nil, {float32(math.NaN())}, {0.9}}, scoreFirst, nan, []bool{false, false, true}},
		{"unscorable rejected", [][]float32{{0.9}, {0.8}}, func(w []float32) float64 {
			if w[0] < 0.85 {
				return math.NaN()
			}
			return float64(w[0])
		}, nan, []bool{true, false}},
		{"no evaluator accepts well-formed", [][]float32{{0.9}, nil, {float32(math.Inf(1))}}, nil, nan, []bool{true, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pbftVerify(scoresOf(tc.batch, tc.verify), tc.ref, pbftVerifyMargin)
			if len(got) != len(tc.want) {
				t.Fatalf("%d verdicts for %d candidates", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("verdicts = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// fuzzBatch decodes arbitrary fuzzer bytes into a weight batch: a
// length prefix per entry (0 = a nil, i.e. corrupt, candidate), then
// raw float32 bits — so NaNs, infinities, and subnormals all occur.
func fuzzBatch(data []byte) [][]float32 {
	var batch [][]float32
	for len(data) > 0 && len(batch) < 64 {
		n := int(data[0] % 8)
		data = data[1:]
		if n == 0 {
			batch = append(batch, nil)
			continue
		}
		var w []float32
		for i := 0; i < n && len(data) >= 4; i++ {
			w = append(w, math.Float32frombits(binary.LittleEndian.Uint32(data)))
			data = data[4:]
		}
		if w == nil {
			batch = append(batch, nil)
		} else {
			batch = append(batch, w)
		}
	}
	return batch
}

// FuzzPBFTVerify: on arbitrary weight payloads, reference scores, and
// margins the verifier must never panic, must return one verdict per
// candidate, must be deterministic call to call, and must never accept
// a corrupt or non-finite candidate. The no-evaluator path is held to
// its exact contract.
func FuzzPBFTVerify(f *testing.F) {
	f.Add([]byte{}, 0.5, 0.15)
	f.Add([]byte{0, 0, 1, 2, 3, 4}, math.NaN(), 0.15)
	f.Add([]byte{2, 0, 0, 128, 63, 0, 0, 192, 127, 1, 0, 0, 128, 255}, 0.9, 0.0)
	f.Add([]byte{7, 255, 255, 255, 255, 255, 255, 255, 255}, math.Inf(1), -1.0)
	f.Fuzz(func(t *testing.T, data []byte, ref, margin float64) {
		batch := fuzzBatch(data)
		verify := func(w []float32) float64 {
			var s float64
			for _, v := range w {
				s += float64(v)
			}
			return s / float64(len(w))
		}
		a := pbftVerify(scoresOf(batch, verify), ref, margin)
		b := pbftVerify(scoresOf(batch, verify), ref, margin)
		if len(a) != len(batch) || len(b) != len(batch) {
			t.Fatalf("%d candidates, %d/%d verdicts", len(batch), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("verdict %d flipped between identical calls: %v vs %v", i, a, b)
			}
			if a[i] && (batch[i] == nil || !finite(batch[i])) {
				t.Fatalf("corrupt or non-finite candidate %d accepted", i)
			}
		}
		// Verification off never advances the reference and keeps the
		// backend's margin.
		off := pbftVerify(scoresOf(batch, nil), math.NaN(), pbftVerifyMargin)
		for i, ok := range off {
			if want := batch[i] != nil && finite(batch[i]); ok != want {
				t.Fatalf("no-evaluator verdict %d = %v, want %v", i, ok, want)
			}
		}
	})
}
