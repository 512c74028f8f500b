// Command tunedata trains one of the paper's two models centrally on
// SynthCIFAR and prints the accuracy trajectory in 5-epoch "rounds",
// mirroring the paper's 10-round x 5-epoch protocol. It exists to tune
// the synthetic data distribution so the two models land in the paper's
// accuracy bands (SimpleNN ~0.60, EfficientNet-B0 ~0.85).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// modelID resolves the -model flag or exits on an unknown name.
func modelID(name string) nn.ModelID {
	switch name {
	case "simple":
		return nn.ModelSimpleNN
	case "effnet":
		return nn.ModelEffNetSim
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", name)
		os.Exit(2)
		return 0
	}
}

func main() {
	var (
		modelName = flag.String("model", "simple", "model: simple | effnet")
		nTrain    = flag.Int("train", 1800, "training samples")
		nTest     = flag.Int("test", 1000, "test samples")
		rounds    = flag.Int("rounds", 10, "rounds (5 epochs each)")
		epochs    = flag.Int("epochs", 5, "epochs per round")
		lr        = flag.Float64("lr", 0.05, "learning rate")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		noise     = flag.Float64("noise", -1, "override background noise std")
		patchAmp  = flag.Float64("patchamp", -1, "override patch amplitude")
		hueAmp    = flag.Float64("hueamp", -1, "override hue amplitude")
		hueGroups = flag.Int("huegroups", 0, "override hue group count")
		chJitter  = flag.Float64("chjitter", -1, "override channel jitter std")
		globalAmp = flag.Float64("globalamp", -1, "override global pattern amplitude")
		bright    = flag.Float64("bright", -1, "override brightness jitter std")
		wd        = flag.Float64("wd", 1e-4, "weight decay")
		pretrain  = flag.Int("pretrain", 4000, "pretraining samples for effnet backbone")
		preEpochs = flag.Int("preepochs", 4, "pretraining epochs")
		preLR     = flag.Float64("prelr", 0.003, "pretraining learning rate")
	)
	flag.Parse()

	cfg := dataset.DefaultConfig()
	if *noise >= 0 {
		cfg.NoiseStd = *noise
	}
	if *patchAmp >= 0 {
		cfg.PatchAmp = *patchAmp
	}
	if *hueAmp >= 0 {
		cfg.HueAmp = *hueAmp
	}
	if *hueGroups > 0 {
		cfg.HueGroups = *hueGroups
	}
	if *bright >= 0 {
		cfg.BrightnessStd = *bright
	}
	if *chJitter >= 0 {
		cfg.ChannelJitterStd = *chJitter
	}
	if *globalAmp >= 0 {
		cfg.GlobalAmp = *globalAmp
	}

	root := xrand.New(*seed)
	// Each set draws from its own derived stream, so generating them
	// concurrently is bit-identical to generating them one by one.
	var train, test *dataset.Set
	gen := []func(){
		func() { train = dataset.Generate(cfg, *nTrain, root.Derive("train")) },
		func() { test = dataset.Generate(cfg, *nTest, root.Derive("test")) },
	}
	if err := par.ForEach(len(gen), len(gen), func(i int) error { gen[i](); return nil }); err != nil {
		panic(err)
	}

	id := modelID(*modelName)
	model := id.Build(root.Derive("init"))
	if id == nn.ModelEffNetSim {
		if *pretrain > 0 {
			preCfg := cfg
			preCfg.TextureFamily = 1
			preSet := dataset.Generate(preCfg, *pretrain, root.Derive("pretext"))
			opt := nn.NewSGD(*preLR, 0.9, 1e-4)
			start := time.Now()
			for e := 0; e < *preEpochs; e++ {
				loss := nn.TrainEpoch(model, opt, preSet.X, preSet.Y, 32, root.Derive(fmt.Sprintf("pre%d", e)))
				fmt.Printf("pretrain epoch %d: loss %.4f acc(test-family) %.4f\n",
					e+1, loss, nn.Evaluate(model, test.X, test.Y, 64))
			}
			fmt.Printf("pretraining took %v\n", time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Printf("model %s: %d params\n", model.ModelName, model.NumParams())

	// Test and train evaluation read the same frozen weights on
	// separate scratch models, so the two runs proceed concurrently.
	testEval := fl.NewAccuracyEvaluator(id, test)
	trainEval := fl.NewAccuracyEvaluator(id, train)

	opt := nn.NewSGD(*lr, 0.9, *wd)
	for r := 1; r <= *rounds; r++ {
		start := time.Now()
		var loss float64
		for e := 0; e < *epochs; e++ {
			loss = nn.TrainEpoch(model, opt, train.X, train.Y, 32, root.Derive(fmt.Sprintf("r%de%d", r, e)))
		}
		weights := model.WeightVector()
		var acc, trainAcc float64
		evals := []func(){
			func() { acc = testEval(weights) },
			func() { trainAcc = trainEval(weights) },
		}
		if err := par.ForEach(len(evals), len(evals), func(i int) error { evals[i](); return nil }); err != nil {
			panic(err)
		}
		fmt.Printf("round %2d: loss %.4f  test acc %.4f  train acc %.4f  (%v)\n",
			r, loss, acc, trainAcc, time.Since(start).Round(time.Millisecond))
	}
}
