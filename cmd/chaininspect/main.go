// Command chaininspect dumps a blockchain produced by an experiment:
// block headers, transactions (with decoded contract calls and
// signature checks), per-round model submissions and aggregation
// decisions, and gas/size accounting.
//
// By default it runs a small decentralized experiment in-process and
// inspects the resulting chain; -load reads a chain file written with
// -save (the WCHN binary format, see internal/chain.WriteChain).
//
//	chaininspect -rounds 2 -save chain.bin
//	chaininspect -load chain.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"waitornot/internal/bfl"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/nn"
)

func main() {
	var (
		rounds = flag.Int("rounds", 2, "rounds for the generated experiment")
		train  = flag.Int("train", 200, "training samples per peer")
		seed   = flag.Uint64("seed", 1, "seed")
		save   = flag.String("save", "", "write the canonical chain to this file")
		load   = flag.String("load", "", "inspect a chain file instead of generating one")
		full   = flag.Bool("txs", true, "print per-transaction detail")
	)
	flag.Parse()

	var blocks []*chain.Block
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		blocks, err = chain.ReadChain(f)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res, err := bfl.RunDecentralizedWithChain(bfl.Config{
			Model:         nn.ModelSimpleNN,
			Rounds:        *rounds,
			Seed:          *seed,
			TrainPerPeer:  *train,
			SelectionSize: 80,
			TestPerPeer:   100,
		})
		if err != nil {
			log.Fatal(err)
		}
		blocks = res.CanonicalChain
		fmt.Printf("generated a %d-round decentralized run (%d peers)\n\n",
			*rounds, len(res.Result.PeerNames))
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := chain.WriteChain(f, blocks); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d blocks to %s\n", len(blocks), *save)
	}

	var totalGas uint64
	totalBytes := 0
	for _, b := range blocks {
		h := b.Header
		fmt.Printf("block #%d %s\n", h.Number, b.Hash().Short())
		fmt.Printf("  parent %s  miner %s  difficulty %d  time %dms\n",
			h.ParentHash.Short(), h.Miner.Short(), h.Difficulty, h.Time)
		fmt.Printf("  txs %d  gas %d  size %d B  pow %v\n",
			len(b.Txs), h.GasUsed, b.Size(), chain.CheckPoW(&h))
		totalGas += h.GasUsed
		totalBytes += b.Size()
		if !*full {
			continue
		}
		for i, tx := range b.Txs {
			sig := "ok"
			if err := tx.VerifySignature(); err != nil {
				sig = "INVALID: " + err.Error()
			}
			desc := fmt.Sprintf("transfer %d", tx.Value)
			if method, args, err := contract.DecodeCall(tx.Payload); err == nil {
				switch method {
				case "submit":
					round, _ := contract.ParseU64(args[0])
					desc = fmt.Sprintf("submit(round=%d, weights=%d B)", round, len(args[3]))
				case "record":
					round, _ := contract.ParseU64(args[0])
					desc = fmt.Sprintf("record(round=%d, combo=%q)", round, string(args[1]))
				case "register":
					desc = fmt.Sprintf("register(%q)", string(args[0]))
				default:
					desc = method
				}
			}
			fmt.Printf("    tx %d %s from %s nonce %d: %s [sig %s]\n",
				i, tx.Hash().Short(), tx.From.Short(), tx.Nonce, desc, sig)
		}
	}
	fmt.Printf("\ntotals: %d blocks, %d gas, %.2f MB\n", len(blocks), totalGas, float64(totalBytes)/1e6)
}
