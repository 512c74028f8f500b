// Command chaininspect dumps and audits a blockchain produced by an
// experiment: block headers, transactions (with decoded contract calls
// and signature checks), gas/size accounting — then the audit replay
// (bfl.AuditChain): every block linked to its parent and checked under
// the block rule, every transaction re-executed from calldata alone —
// and the audit trail read back from the replayed contract state: the
// registered participants, then per round who submitted which weights
// and who adopted which combination with which result. It ends with
// "chain valid: N blocks, M txs replayed", or names the first offending
// block and the rule it broke and exits 1.
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
	"io"
	"os"

	"waitornot/internal/bfl"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/nn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaininspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaininspect", flag.ContinueOnError)
	var (
		rounds = fs.Int("rounds", 2, "rounds for the generated experiment")
		train  = fs.Int("train", 200, "training samples per peer")
		seed   = fs.Uint64("seed", 1, "seed")
		save   = fs.String("save", "", "write the canonical chain to this file")
		load   = fs.String("load", "", "inspect a chain file instead of generating one")
		full   = fs.Bool("txs", true, "print per-transaction detail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var blocks []*chain.Block
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		blocks, err = chain.ReadChain(f)
		if err != nil {
			return err
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
			return err
		}
		blocks = res.CanonicalChain
		fmt.Fprintf(out, "generated a %d-round decentralized run (%d peers)\n\n",
			*rounds, len(res.Result.PeerNames))
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := chain.WriteChain(f, blocks); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d blocks to %s\n", len(blocks), *save)
	}

	var totalGas uint64
	totalBytes := 0
	txs := 0
	for i, b := range blocks {
		if b == nil {
			fmt.Fprintf(out, "block #%d missing\n", i)
			continue
		}
		h := b.Header
		fmt.Fprintf(out, "block #%d %s\n", h.Number, b.Hash().Short())
		fmt.Fprintf(out, "  parent %s  miner %s  difficulty %d  time %dms\n",
			h.ParentHash.Short(), h.Miner.Short(), h.Difficulty, h.Time)
		fmt.Fprintf(out, "  txs %d  gas %d  size %d B  pow %v\n",
			len(b.Txs), h.GasUsed, b.Size(), chain.CheckPoW(&h))
		totalGas += h.GasUsed
		totalBytes += b.Size()
		txs += len(b.Txs)
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
			fmt.Fprintf(out, "    tx %d %s from %s nonce %d: %s [sig %s]\n",
				i, tx.Hash().Short(), tx.From.Short(), tx.Nonce, desc, sig)
		}
	}
	fmt.Fprintf(out, "\ntotals: %d blocks, %d gas, %.2f MB\n", len(blocks), totalGas, float64(totalBytes)/1e6)

	st, err := bfl.AuditChain(blocks)
	if err != nil {
		return fmt.Errorf("chain INVALID: %w", err)
	}
	// The non-repudiation trail, read back from the replayed contract
	// state: who registered, who submitted which weights, who adopted
	// which combination with which result.
	fmt.Fprintf(out, "\naudit trail:\n")
	for _, p := range contract.Participants(st) {
		fmt.Fprintf(out, "  participant %s %s\n", p.Name, p.Addr.Short())
	}
	for round := uint64(1); ; round++ {
		subs, decs := contract.SubmissionsAt(st, round), contract.DecisionsAt(st, round)
		if len(subs)+len(decs) == 0 {
			break
		}
		for _, s := range subs {
			fmt.Fprintf(out, "  round %d submission %s: weights %s (%d B, %d samples) in tx %s\n",
				round, contract.NameOf(st, s.Sender), s.WeightsHash.Short(), s.PayloadSize, s.NumSamples, s.TxHash.Short())
		}
		for _, d := range decs {
			fmt.Fprintf(out, "  round %d decision %s: adopted %q (%d models), result %s\n",
				round, contract.NameOf(st, d.Peer), d.Combo, d.NumIncluded, d.ResultHash.Short())
		}
	}
	fmt.Fprintf(out, "chain valid: %d blocks, %d txs replayed\n", len(blocks), txs)
	return nil
}
