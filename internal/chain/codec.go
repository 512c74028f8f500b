package chain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Chain persistence wire format (little endian throughout):
//
//	magic   [4]byte  "WCHN"
//	version uint8    2
//	count   uint32   number of blocks
//	blocks  count * block
//
//	block:
//	  present uint8            0 = nil placeholder, 1 = block follows
//	  header  fixed fields     ParentHash, Number, Time, Miner,
//	                           Difficulty, Nonce, TxRoot, GasLimit,
//	                           GasUsed
//	  ntxs    uint32
//	  txs     ntxs * tx
//
//	tx:
//	  from    [20]byte
//	  pubkey  u32 len | bytes
//	  nonce, value, gaslimit, gasprice  uint64
//	  to      [20]byte
//	  payload u32 len | bytes
//	  sig     [64]byte
//
// The format is deterministic (identical chains encode to identical
// bytes) and decodes without reflection. It is the only format
// ReadChain accepts: a stream that does not open with the magic is
// rejected as corrupt.
const (
	chainMagic   = "WCHN"
	chainVersion = 2
	// codecMaxLen caps any single length prefix (pubkey, payload, tx
	// count) so a corrupt or hostile stream cannot demand an absurd
	// allocation before hitting EOF.
	codecMaxLen = 1 << 28
)

// ErrCorruptChain is returned when a chain stream fails structural
// validation.
var ErrCorruptChain = errors.New("chain: corrupt chain encoding")

// WriteChain serializes blocks (typically a canonical chain) in the
// versioned binary format — the persistence format the inspection
// tooling uses. The genesis block is included so a reader can verify
// the chain from scratch.
func WriteChain(w io.Writer, blocks []*Block) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(chainMagic)
	bw.WriteByte(chainVersion)
	writeU32(bw, uint32(len(blocks)))
	for _, b := range blocks {
		if b == nil {
			bw.WriteByte(0)
			continue
		}
		bw.WriteByte(1)
		h := &b.Header
		bw.Write(h.ParentHash[:])
		writeU64(bw, h.Number)
		writeU64(bw, h.Time)
		bw.Write(h.Miner[:])
		writeU64(bw, h.Difficulty)
		writeU64(bw, h.Nonce)
		bw.Write(h.TxRoot[:])
		writeU64(bw, h.GasLimit)
		writeU64(bw, h.GasUsed)
		writeU32(bw, uint32(len(b.Txs)))
		for _, tx := range b.Txs {
			bw.Write(tx.From[:])
			writeBytes32(bw, tx.PubKey)
			writeU64(bw, tx.Nonce)
			writeU64(bw, tx.Value)
			writeU64(bw, tx.GasLimit)
			writeU64(bw, tx.GasPrice)
			bw.Write(tx.To[:])
			writeBytes32(bw, tx.Payload)
			bw.Write(tx.Sig[:])
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("chain: encode: %w", err)
	}
	return nil
}

// ReadChain deserializes blocks written by WriteChain. Anything else —
// a stream without the magic, an unknown version, a truncated or
// oversized field, bytes after the last block — is rejected with an
// ErrCorruptChain-wrapped error.
func ReadChain(r io.Reader) ([]*Block, error) {
	d := &chainDecoder{r: bufio.NewReader(r)}
	var head [len(chainMagic) + 1]byte
	d.full(head[:])
	if d.err != nil || string(head[:len(chainMagic)]) != chainMagic {
		return nil, fmt.Errorf("%w: missing %q magic", ErrCorruptChain, chainMagic)
	}
	if head[len(chainMagic)] != chainVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptChain, head[len(chainMagic)])
	}
	count := d.u32()
	if count > codecMaxLen {
		return nil, fmt.Errorf("%w: block count %d", ErrCorruptChain, count)
	}
	blocks := make([]*Block, 0, min(int(count), 1024))
	for i := uint32(0); i < count; i++ {
		switch d.u8() {
		case 0:
			blocks = append(blocks, nil)
			continue
		case 1:
		default:
			if d.err == nil {
				d.err = fmt.Errorf("%w: bad block marker", ErrCorruptChain)
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("chain: decode: %w", d.err)
		}
		b := &Block{}
		h := &b.Header
		d.full(h.ParentHash[:])
		h.Number = d.u64()
		h.Time = d.u64()
		d.full(h.Miner[:])
		h.Difficulty = d.u64()
		h.Nonce = d.u64()
		d.full(h.TxRoot[:])
		h.GasLimit = d.u64()
		h.GasUsed = d.u64()
		ntxs := d.u32()
		if ntxs > codecMaxLen {
			return nil, fmt.Errorf("%w: tx count %d", ErrCorruptChain, ntxs)
		}
		for j := uint32(0); j < ntxs && d.err == nil; j++ {
			tx := &Transaction{}
			d.full(tx.From[:])
			tx.PubKey = d.bytes32()
			tx.Nonce = d.u64()
			tx.Value = d.u64()
			tx.GasLimit = d.u64()
			tx.GasPrice = d.u64()
			d.full(tx.To[:])
			tx.Payload = d.bytes32()
			d.full(tx.Sig[:])
			b.Txs = append(b.Txs, tx)
		}
		if d.err != nil {
			return nil, fmt.Errorf("chain: decode: %w", d.err)
		}
		blocks = append(blocks, b)
	}
	if d.err != nil {
		return nil, fmt.Errorf("chain: decode: %w", d.err)
	}
	if _, err := d.r.ReadByte(); err == nil {
		return nil, fmt.Errorf("%w: bytes after block %d", ErrCorruptChain, count)
	} else if err != io.EOF {
		return nil, fmt.Errorf("%w: %v", ErrCorruptChain, err)
	}
	return blocks, nil
}

// chainDecoder reads the fixed-width primitives of the wire format,
// latching the first error so call sites stay linear.
type chainDecoder struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (d *chainDecoder) full(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorruptChain, err)
	}
}

func (d *chainDecoder) u8() byte {
	d.full(d.buf[:1])
	if d.err != nil {
		return 0
	}
	return d.buf[0]
}

func (d *chainDecoder) u32() uint32 {
	d.full(d.buf[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *chainDecoder) u64() uint64 {
	d.full(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:8])
}

// bytes32 reads a u32-length-prefixed byte string. A zero length
// decodes to nil (matching the encoder, which writes nil and empty
// identically — no transaction carries a meaningful empty-vs-nil
// distinction).
func (d *chainDecoder) bytes32() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > codecMaxLen {
		d.err = fmt.Errorf("%w: length prefix %d", ErrCorruptChain, n)
		return nil
	}
	// Cap the upfront allocation; ReadFull fails cleanly on truncated
	// streams that declared a huge length.
	p := make([]byte, 0, min(int(n), 1<<16))
	var chunk [4096]byte
	for remaining := int(n); remaining > 0; {
		c := min(remaining, len(chunk))
		if _, err := io.ReadFull(d.r, chunk[:c]); err != nil {
			d.err = fmt.Errorf("%w: %v", ErrCorruptChain, err)
			return nil
		}
		p = append(p, chunk[:c]...)
		remaining -= c
	}
	return p
}

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

// writeBytes32 writes a u32-length-prefixed byte string.
func writeBytes32(w *bufio.Writer, b []byte) {
	writeU32(w, uint32(len(b)))
	w.Write(b)
}
