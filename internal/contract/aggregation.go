package contract

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

// Aggregation is the federated-aggregation contract: peers submit their
// local models each round and record which combination they adopted.
// The weight blob itself rides in the transaction calldata (paying
// per-byte gas, the dominant cost, as in the paper); the contract stores
// its digest plus the carrying transaction's hash so any peer can fetch
// and verify the bytes from the chain. Decisions form the auditable
// trace the paper's non-repudiation argument relies on.
type Aggregation struct{}

var _ Contract = (*Aggregation)(nil)

// Storage key shapes (raw bytes embedded):
//
//	sub/<round u64 be>/<addr 20>  -> encoded Submission
//	dec/<round u64 be>/<addr 20>  -> encoded Decision
const (
	subPrefix = "sub/"
	decPrefix = "dec/"
)

func roundKey(prefix string, round uint64, addr keys.Address) string {
	var r [8]byte
	binary.BigEndian.PutUint64(r[:], round)
	return prefix + string(r[:]) + "/" + string(addr[:])
}

// Submission is one recorded local-model submission.
type Submission struct {
	Round       uint64
	Sender      keys.Address
	ModelID     uint64
	NumSamples  uint64
	WeightsHash chain.Hash
	PayloadSize uint64
	TxHash      chain.Hash
}

func (s *Submission) encode() []byte {
	var buf bytes.Buffer
	buf.Grow(8*3 + 32*2 + keys.AddressLen + 8)
	b8 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	b8(s.Round)
	buf.Write(s.Sender[:])
	b8(s.ModelID)
	b8(s.NumSamples)
	buf.Write(s.WeightsHash[:])
	b8(s.PayloadSize)
	buf.Write(s.TxHash[:])
	return buf.Bytes()
}

func decodeSubmission(b []byte) (*Submission, error) {
	want := 8 + keys.AddressLen + 8 + 8 + 32 + 8 + 32
	if len(b) != want {
		return nil, fmt.Errorf("%w: submission record %d bytes, want %d", ErrBadCallData, len(b), want)
	}
	s := &Submission{}
	s.Round = binary.LittleEndian.Uint64(b)
	b = b[8:]
	copy(s.Sender[:], b)
	b = b[keys.AddressLen:]
	s.ModelID = binary.LittleEndian.Uint64(b)
	b = b[8:]
	s.NumSamples = binary.LittleEndian.Uint64(b)
	b = b[8:]
	copy(s.WeightsHash[:], b)
	b = b[32:]
	s.PayloadSize = binary.LittleEndian.Uint64(b)
	b = b[8:]
	copy(s.TxHash[:], b)
	return s, nil
}

// Decision is one recorded aggregation choice.
type Decision struct {
	Round       uint64
	Peer        keys.Address
	Combo       string
	ResultHash  chain.Hash
	NumIncluded uint64
}

func (d *Decision) encode() []byte {
	var buf bytes.Buffer
	b8 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	b8(d.Round)
	buf.Write(d.Peer[:])
	b8(uint64(len(d.Combo)))
	buf.WriteString(d.Combo)
	buf.Write(d.ResultHash[:])
	b8(d.NumIncluded)
	return buf.Bytes()
}

func decodeDecision(b []byte) (*Decision, error) {
	min := 8 + keys.AddressLen + 8 + 32 + 8
	if len(b) < min {
		return nil, fmt.Errorf("%w: decision record too short", ErrBadCallData)
	}
	d := &Decision{}
	d.Round = binary.LittleEndian.Uint64(b)
	b = b[8:]
	copy(d.Peer[:], b)
	b = b[keys.AddressLen:]
	clen := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) < clen+32+8 {
		return nil, fmt.Errorf("%w: decision combo truncated", ErrBadCallData)
	}
	d.Combo = string(b[:clen])
	b = b[clen:]
	copy(d.ResultHash[:], b)
	b = b[32:]
	d.NumIncluded = binary.LittleEndian.Uint64(b)
	return d, nil
}

// Call implements Contract. Methods:
//
//	submit(round u64, modelID u64, numSamples u64, weights []byte)
//	  — record the sender's local model for the round. One submission
//	    per (round, sender); re-submission reverts.
//	record(round u64, combo string, resultHash [32]byte, included u64)
//	  — record the sender's adopted aggregation for the round.
func (a *Aggregation) Call(ctx *Ctx, call *Call) error {
	args := call.Args
	switch call.Method {
	case "submit":
		if len(args) != 4 {
			return fmt.Errorf("%w: submit(round, modelID, numSamples, weights)", ErrBadArgs)
		}
		round, err := ParseU64(args[0])
		if err != nil {
			return err
		}
		modelID, err := ParseU64(args[1])
		if err != nil {
			return err
		}
		numSamples, err := ParseU64(args[2])
		if err != nil {
			return err
		}
		weights := args[3]
		if len(weights) == 0 {
			return fmt.Errorf("%w: empty weights", ErrBadArgs)
		}
		key := roundKey(subPrefix, round, ctx.Tx.From)
		if ctx.Load(key) != nil {
			return fmt.Errorf("%w: duplicate submission for round %d", ErrBadArgs, round)
		}
		sub := &Submission{
			Round:       round,
			Sender:      ctx.Tx.From,
			ModelID:     modelID,
			NumSamples:  numSamples,
			WeightsHash: call.BlobHash(),
			PayloadSize: uint64(len(weights)),
			TxHash:      ctx.Tx.Hash(),
		}
		ctx.Store(key, sub.encode())
		ctx.Emit("ModelSubmitted", sub.encode())
		return nil

	case "record":
		if len(args) != 4 {
			return fmt.Errorf("%w: record(round, combo, resultHash, included)", ErrBadArgs)
		}
		round, err := ParseU64(args[0])
		if err != nil {
			return err
		}
		combo := string(args[1])
		if combo == "" || len(combo) > 256 {
			return fmt.Errorf("%w: bad combo label", ErrBadArgs)
		}
		if len(args[2]) != 32 {
			return fmt.Errorf("%w: result hash must be 32 bytes", ErrBadArgs)
		}
		included, err := ParseU64(args[3])
		if err != nil {
			return err
		}
		d := &Decision{Round: round, Peer: ctx.Tx.From, Combo: combo, NumIncluded: included}
		copy(d.ResultHash[:], args[2])
		ctx.Store(roundKey(decPrefix, round, ctx.Tx.From), d.encode())
		ctx.Emit("AggregationRecorded", d.encode())
		return nil

	default:
		return fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
}

// SubmitCallData builds the payload for submit(...). weights is the
// encoded weight blob (nn.AppendWeights output).
func SubmitCallData(round, modelID, numSamples uint64, weights []byte) []byte {
	return EncodeCall("submit", U64(round), U64(modelID), U64(numSamples), weights)
}

// RecordCallData builds the payload for record(...).
func RecordCallData(round uint64, combo string, resultHash chain.Hash, included uint64) []byte {
	return EncodeCall("record", U64(round), []byte(combo), resultHash[:], U64(included))
}

// roundKeys returns the storage keys under prefix for round, in address
// order: filter first, sort only the matches — every peer lists every
// round, so sorting all past rounds' keys would grow with rounds².
func roundKeys(st *chain.State, prefix string, round uint64) []string {
	zero := roundKey(prefix, round, keys.Address{})
	prefix = zero[:len(zero)-keys.AddressLen]
	var matches []string
	for key := range st.Storage[AggregationAddress] {
		if len(key) == len(zero) && key[:len(prefix)] == prefix {
			matches = append(matches, key)
		}
	}
	sort.Strings(matches)
	return matches
}

// SubmissionsAt reads all submissions for a round from a state snapshot,
// sorted by sender address.
func SubmissionsAt(st *chain.State, round uint64) []*Submission {
	var out []*Submission
	for _, key := range roundKeys(st, subPrefix, round) {
		if s, err := decodeSubmission(st.Get(AggregationAddress, key)); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// DecisionsAt reads all recorded aggregation decisions for a round,
// sorted by peer address.
func DecisionsAt(st *chain.State, round uint64) []*Decision {
	var out []*Decision
	for _, key := range roundKeys(st, decPrefix, round) {
		if d, err := decodeDecision(st.Get(AggregationAddress, key)); err == nil {
			out = append(out, d)
		}
	}
	return out
}
