package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Codec turns a byte stream into a Message stream. Encoders and decoders
// may carry per-connection scratch state, so a Codec is a factory: each
// connection gets its own encoder/decoder pair over its own stream.
type Codec interface {
	Name() string
	NewEncoder(w io.Writer) Encoder
	// NewDecoder returns a decoder that draws payload buffers from pool
	// (nil = allocate per message).
	NewDecoder(r io.Reader, pool *Pool) Decoder
}

// Encoder writes messages to one stream. Callers serialise access.
type Encoder interface {
	Encode(m *Message) error
}

// Decoder reads messages from one stream. Callers serialise access.
type Decoder interface {
	Decode(m *Message) error
}

// ---------------------------------------------------------------------------
// Binary: the one TCP framing. Every message travels as a fixed 21-byte
// little-endian header (tag, image, volume, lo, hi, payload length)
// followed by the raw payload, so encoding is two buffered writes and
// decoding is two io.ReadFulls with zero reflection. Control messages
// (Volume < VolInput: heartbeats) use the same header; see sentinels.go
// for how a beat fills its fields.

const (
	tagChunk = 0x01

	chunkHeaderLen = 1 + 4 + 4 + 4 + 4 + 4 // tag + image + volume + lo + hi + len

	// maxFrame bounds a decoded payload so a corrupt stream cannot request
	// an absurd allocation.
	maxFrame = 1 << 30

	// readStep is the most a decoder allocates for a payload before its
	// bytes arrive. Larger payloads are read into a buffer that doubles as
	// they stream in, so a corrupt length field costs at most twice the
	// bytes actually on the wire, not maxFrame.
	readStep = 1 << 20
)

type binaryCodec struct{}

// Binary returns the length-prefixed binary chunk codec.
func Binary() Codec { return binaryCodec{} }

func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) NewEncoder(w io.Writer) Encoder {
	return &binaryEncoder{w: w}
}

func (binaryCodec) NewDecoder(r io.Reader, pool *Pool) Decoder {
	return &binaryDecoder{r: r, pool: pool}
}

type binaryEncoder struct {
	w   io.Writer
	hdr [chunkHeaderLen]byte
}

func (e *binaryEncoder) Encode(m *Message) error {
	e.hdr[0] = tagChunk
	binary.LittleEndian.PutUint32(e.hdr[1:5], m.Image)
	binary.LittleEndian.PutUint32(e.hdr[5:9], uint32(m.Volume))
	binary.LittleEndian.PutUint32(e.hdr[9:13], uint32(m.Lo))
	binary.LittleEndian.PutUint32(e.hdr[13:17], uint32(m.Hi))
	binary.LittleEndian.PutUint32(e.hdr[17:21], uint32(len(m.Payload)))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) == 0 {
		return nil
	}
	_, err := e.w.Write(m.Payload)
	return err
}

type binaryDecoder struct {
	r    io.Reader
	hdr  [chunkHeaderLen]byte
	pool *Pool // nil = allocate payload buffers per message
}

func (d *binaryDecoder) Decode(m *Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:1]); err != nil {
		return err
	}
	if d.hdr[0] != tagChunk {
		return fmt.Errorf("transport: unknown frame tag 0x%02x", d.hdr[0])
	}
	if _, err := io.ReadFull(d.r, d.hdr[1:]); err != nil {
		return err
	}
	m.Image = binary.LittleEndian.Uint32(d.hdr[1:5])
	m.Volume = int32(binary.LittleEndian.Uint32(d.hdr[5:9]))
	m.Lo = int32(binary.LittleEndian.Uint32(d.hdr[9:13]))
	m.Hi = int32(binary.LittleEndian.Uint32(d.hdr[13:17]))
	n := int(binary.LittleEndian.Uint32(d.hdr[17:21]))
	if n > maxFrame {
		return fmt.Errorf("transport: chunk payload of %d bytes exceeds limit", n)
	}
	if n == 0 {
		m.Payload = nil
		return nil
	}
	if cap(m.Payload) >= n {
		m.Payload = m.Payload[:n]
		_, err := io.ReadFull(d.r, m.Payload)
		return err
	}
	buf := d.pool.Get(min(n, readStep))
	have := 0
	for {
		if _, err := io.ReadFull(d.r, buf[have:]); err != nil {
			return err
		}
		if len(buf) == n {
			m.Payload = buf
			return nil
		}
		have = len(buf)
		next := d.pool.Get(min(n, 2*have))
		copy(next, buf)
		d.pool.Put(buf)
		buf = next
	}
}
