// Package wire defines the binary ingest protocol spoken between hsqclient
// and an hsqd ingest listener: a versioned, length-prefixed frame format
// carrying stream-multiplexed batches of int64 elements.
//
// # Connection lifecycle
//
// The client opens a TCP connection and sends a Hello frame (magic,
// protocol version, session token). The server answers with a Welcome frame
// carrying the highest sequence number it has already applied for that
// session (0 for a new session) and the credit window. All further traffic
// is frames: the client sends OpenStream, Batch, EndStep and Flush; the
// server sends Ack and Error.
//
// # Sequencing, acks and credit
//
// Batch and EndStep frames are "sequenced": each carries a connection-wide
// strictly increasing Seq assigned by the client. The server applies
// sequenced frames in order and acknowledges them cumulatively — an Ack
// with Seq = s means every sequenced frame with Seq ≤ s has been fully
// applied. The Ack also restates the credit window W: the client may have
// at most W sequenced frames outstanding (sent but unacknowledged). When
// the server stalls (e.g. EndStep blocked on maintenance backpressure),
// acks stop, the client exhausts its credit and blocks — explicit
// backpressure instead of unbounded buffering on either side.
//
// OpenStream and Flush are not sequenced: OpenStream is idempotent (the
// client replays all of its stream bindings after a reconnect) and Flush
// merely requests an immediate Ack.
//
// # Exactly-once replay
//
// A client that loses its connection reconnects with the same session
// token. The Welcome's LastSeq tells it which buffered frames the server
// already applied; it drops those and replays the rest, so every sequenced
// frame is applied exactly once per server process even across reconnects.
//
// # Value encoding
//
// Batch values are delta-encoded (first value, then successive
// differences) and written as zig-zag varints, so sorted or slowly-varying
// batches — the common case for metric streams — cost ~1–2 bytes per
// element instead of 8.
//
// # Frame layout
//
// Every frame is
//
//	type  (1 byte)
//	len   (uvarint — payload length in bytes)
//	payload
//
// with payloads per type:
//
//	Hello       magic "HSQW" | version u8 | session: uvarint len + bytes
//	            | [uvarint flags — v2, written only when nonzero]
//	Welcome     version u8 | uvarint lastSeq | uvarint credit
//	            | [uvarint count | count × (name: uvarint len + bytes | uvarint seq) — v2]
//	OpenStream  uvarint streamID | name: uvarint len + bytes
//	Batch       uvarint seq | uvarint streamID | uvarint count | values
//	EndStep     uvarint seq | uvarint streamID
//	Flush       uvarint seq (the newest seq the client wants acknowledged)
//	Ack         uvarint seq | uvarint credit
//	Error       uvarint code | message: uvarint len + bytes
//	Ping        uvarint seq (opaque; echoed back)
//	Pong        uvarint seq (echo of the Ping's seq)
//	SummaryReq  uvarint seq | name: uvarint len + bytes
//	SummaryResp uvarint seq | uvarint code | message: uvarint len + bytes
//	            | data: uvarint len + bytes
//	Subscribe   uvarint subID | uvarint credit | plan: uvarint len + bytes
//	Unsubscribe uvarint subID
//	Push        uvarint subID | uvarint seq | uvarint code
//	            | message: uvarint len + bytes | data: uvarint len + bytes
//
// # Continuous queries
//
// Subscribe registers a continuous query: the payload carries a JSON query
// plan (see internal/query) under a client-chosen subscription ID (the
// StreamID field — IDs share nothing with stream bindings). The server
// evaluates the plan and pushes the result as a Push frame, then re-pushes
// after every EndStep touching a member stream, debounced and coalesced to
// the latest state. Credit bounds delivery: the server sends at most
// `credit` pushes for one Subscribe (0 = unbounded); the client re-sends
// Subscribe with the same subID to replenish (and/or replace the plan).
// Push.Seq numbers the pushes of one subscription from 1. A Push with a
// nonzero Code carries no result: it reports a per-subscription error
// (e.g. ErrCodePlan for an unevaluable plan) without poisoning the
// connection the way an Error frame would. Unsubscribe cancels the ID;
// pushes are not replayed across reconnects — the client re-subscribes and
// the first new push is a fresh full evaluation.
//
// # Version 2
//
// Version 2 adds keepalive (Ping/Pong), summary fetch (SummaryReq/
// SummaryResp), Hello flags marking relayed and leaf connections, a
// Welcome extension restating the last applied sequence per stream name,
// and the continuous-query frames (Subscribe/Unsubscribe/Push).
// Extensions to v1 frames are appended as optional trailing fields, so a
// v1 peer's frames decode unchanged; servers accept v1 and v2 Hellos.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/enc"
)

// Magic opens every Hello frame; a listener that reads anything else on a
// fresh connection is talking to the wrong client (or an HTTP request).
const Magic = "HSQW"

// Version is the newest protocol version this package speaks. Servers
// accept any version in [MinVersion, Version] and answer with the version
// they will speak on the connection.
const Version = 2

// MinVersion is the oldest protocol version still accepted.
const MinVersion = 1

// MaxFrameSize caps the payload length a Reader will accept, bounding the
// memory a malformed (or hostile) length prefix can make the decoder
// allocate. Large batches must be split below this by the sender; the
// default client batch size stays far under it.
const MaxFrameSize = 1 << 20

// MaxSessionLen bounds the opaque session token carried by Hello.
const MaxSessionLen = 64

// Frame types.
const (
	TypeHello       = 0x01 // client → server: magic, version, session
	TypeWelcome     = 0x02 // server → client: version, last applied seq, credit
	TypeOpenStream  = 0x03 // client → server: bind a stream ID to a name
	TypeBatch       = 0x04 // client → server: sequenced value batch
	TypeEndStep     = 0x05 // client → server: sequenced end-of-step
	TypeFlush       = 0x06 // client → server: request an immediate Ack
	TypeAck         = 0x07 // server → client: cumulative ack + credit
	TypeError       = 0x08 // server → client: terminal error
	TypePing        = 0x09 // either direction: keepalive probe (v2)
	TypePong        = 0x0A // either direction: keepalive echo (v2)
	TypeSummaryReq  = 0x0B // client → server: request a stream's shard summary (v2)
	TypeSummaryResp = 0x0C // server → client: encoded shard summary or error (v2)
	TypeSubscribe   = 0x0D // client → server: register/renew a continuous query (v2)
	TypeUnsubscribe = 0x0E // client → server: cancel a continuous query (v2)
	TypePush        = 0x0F // server → client: continuous query result or per-sub error (v2)
)

// Hello flags (v2). A plain client sends no flags; cluster-internal
// connections mark themselves so the receiver knows how far a frame may
// travel.
const (
	// HelloFlagRelay marks a connection carrying frames routed from a
	// non-owner node: the receiver applies them and fans out to its
	// followers, but must never route them onward again.
	HelloFlagRelay = 1 << 0
	// HelloFlagLeaf marks a follower (replica) connection: the receiver
	// applies frames locally and nothing more — no fan-out, no routing.
	HelloFlagLeaf = 1 << 1
)

// Error codes carried by Error and Push frames. The code is the
// machine-readable half of the error: clients branch on it — not on the
// message text — to decide whether a failure is fatal (ErrCodeProtocol,
// ErrCodePlan) or retryable after reconnecting (ErrCodeShutdown, and any
// connection-level failure without a code).
const (
	ErrCodeProtocol = 1 // malformed frame, bad magic or version mismatch; not retryable
	ErrCodeStream   = 2 // stream open or apply failure
	ErrCodeShutdown = 3 // server shutting down; reconnect later
	ErrCodePlan     = 4 // invalid or unevaluable query plan; retrying the same plan cannot succeed
)

// ErrFrameTooLarge is returned by Reader.ReadFrame for a length prefix
// beyond the reader's limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// StreamSeq is one per-stream high-water-mark entry in a v2 Welcome: the
// newest applied sequence number for one stream name of the session.
type StreamSeq struct {
	Name string
	Seq  uint64
}

// Frame is one protocol frame, decoded. Which fields are meaningful
// depends on Type (see the package comment's payload table); the rest are
// zero. A single struct — rather than one type per frame — keeps the
// encoder, decoder and their round-trip tests in one obvious place.
type Frame struct {
	Type byte

	Version    byte        // Hello, Welcome
	Session    string      // Hello
	Flags      uint64      // Hello (v2)
	Seq        uint64      // Batch, EndStep, Flush, Ack, Ping, Pong, SummaryReq/Resp; Welcome's LastSeq; Push's per-sub counter
	Credit     uint64      // Welcome, Ack; Subscribe's push budget
	StreamID   uint64      // OpenStream, Batch, EndStep; the subscription ID for Subscribe/Unsubscribe/Push
	Name       string      // OpenStream, SummaryReq
	Values     []int64     // Batch
	Code       uint64      // Error, SummaryResp, Push
	Message    string      // Error, SummaryResp, Push
	Data       []byte      // SummaryResp; Subscribe's JSON plan; Push's JSON result
	StreamSeqs []StreamSeq // Welcome (v2)
}

func (f *Frame) String() string {
	switch f.Type {
	case TypeHello:
		return fmt.Sprintf("Hello{v%d session=%q flags=%#x}", f.Version, f.Session, f.Flags)
	case TypeWelcome:
		return fmt.Sprintf("Welcome{v%d lastSeq=%d credit=%d streams=%v}", f.Version, f.Seq, f.Credit, f.StreamSeqs)
	case TypeOpenStream:
		return fmt.Sprintf("OpenStream{id=%d name=%q}", f.StreamID, f.Name)
	case TypeBatch:
		return fmt.Sprintf("Batch{seq=%d id=%d n=%d}", f.Seq, f.StreamID, len(f.Values))
	case TypeEndStep:
		return fmt.Sprintf("EndStep{seq=%d id=%d}", f.Seq, f.StreamID)
	case TypeFlush:
		return fmt.Sprintf("Flush{seq=%d}", f.Seq)
	case TypeAck:
		return fmt.Sprintf("Ack{seq=%d credit=%d}", f.Seq, f.Credit)
	case TypeError:
		return fmt.Sprintf("Error{code=%d %q}", f.Code, f.Message)
	case TypePing:
		return fmt.Sprintf("Ping{seq=%d}", f.Seq)
	case TypePong:
		return fmt.Sprintf("Pong{seq=%d}", f.Seq)
	case TypeSummaryReq:
		return fmt.Sprintf("SummaryReq{seq=%d name=%q}", f.Seq, f.Name)
	case TypeSummaryResp:
		return fmt.Sprintf("SummaryResp{seq=%d code=%d %q data=%d}", f.Seq, f.Code, f.Message, len(f.Data))
	case TypeSubscribe:
		return fmt.Sprintf("Subscribe{sub=%d credit=%d plan=%d}", f.StreamID, f.Credit, len(f.Data))
	case TypeUnsubscribe:
		return fmt.Sprintf("Unsubscribe{sub=%d}", f.StreamID)
	case TypePush:
		return fmt.Sprintf("Push{sub=%d seq=%d code=%d %q data=%d}", f.StreamID, f.Seq, f.Code, f.Message, len(f.Data))
	default:
		return fmt.Sprintf("Frame{type=%#x}", f.Type)
	}
}

// Sequenced reports whether the frame type carries a client-assigned
// sequence number that the server acknowledges (and that replay dedupes).
func (f *Frame) Sequenced() bool {
	return f.Type == TypeBatch || f.Type == TypeEndStep
}

// AppendValues appends the batch value encoding of vs (delta + zig-zag
// varint) to buf. The codec lives in internal/enc, shared with the columnar
// block format; the wire encoding is unchanged by the extraction.
func AppendValues(buf []byte, vs []int64) []byte {
	return enc.AppendDelta(buf, vs)
}

// appendUvarint / appendString are small helpers over encoding/binary.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendFrame appends the full wire encoding of f (header + payload) to
// buf and returns the extended slice.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	var payload []byte
	switch f.Type {
	case TypeHello:
		if len(f.Session) > MaxSessionLen {
			return nil, fmt.Errorf("wire: session token %d bytes exceeds %d", len(f.Session), MaxSessionLen)
		}
		payload = append(payload, Magic...)
		payload = append(payload, f.Version)
		payload = appendString(payload, f.Session)
		// The flags field is a v2 trailing extension; omitting it when
		// zero keeps v1-shaped Hellos byte-identical to version 1.
		if f.Flags != 0 {
			payload = binary.AppendUvarint(payload, f.Flags)
		}
	case TypeWelcome:
		payload = append(payload, f.Version)
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.Credit)
		// Per-stream marks are a v2 trailing extension, same deal.
		if len(f.StreamSeqs) > 0 {
			payload = binary.AppendUvarint(payload, uint64(len(f.StreamSeqs)))
			for _, ss := range f.StreamSeqs {
				payload = appendString(payload, ss.Name)
				payload = binary.AppendUvarint(payload, ss.Seq)
			}
		}
	case TypeOpenStream:
		payload = binary.AppendUvarint(payload, f.StreamID)
		payload = appendString(payload, f.Name)
	case TypeBatch:
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.StreamID)
		payload = binary.AppendUvarint(payload, uint64(len(f.Values)))
		payload = AppendValues(payload, f.Values)
	case TypeEndStep:
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.StreamID)
	case TypeFlush:
		payload = binary.AppendUvarint(payload, f.Seq)
	case TypeAck:
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.Credit)
	case TypeError:
		payload = binary.AppendUvarint(payload, f.Code)
		payload = appendString(payload, f.Message)
	case TypePing, TypePong:
		payload = binary.AppendUvarint(payload, f.Seq)
	case TypeSummaryReq:
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = appendString(payload, f.Name)
	case TypeSummaryResp:
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.Code)
		payload = appendString(payload, f.Message)
		payload = binary.AppendUvarint(payload, uint64(len(f.Data)))
		payload = append(payload, f.Data...)
	case TypeSubscribe:
		payload = binary.AppendUvarint(payload, f.StreamID)
		payload = binary.AppendUvarint(payload, f.Credit)
		payload = binary.AppendUvarint(payload, uint64(len(f.Data)))
		payload = append(payload, f.Data...)
	case TypeUnsubscribe:
		payload = binary.AppendUvarint(payload, f.StreamID)
	case TypePush:
		payload = binary.AppendUvarint(payload, f.StreamID)
		payload = binary.AppendUvarint(payload, f.Seq)
		payload = binary.AppendUvarint(payload, f.Code)
		payload = appendString(payload, f.Message)
		payload = binary.AppendUvarint(payload, uint64(len(f.Data)))
		payload = append(payload, f.Data...)
	default:
		return nil, fmt.Errorf("wire: encode unknown frame type %#x", f.Type)
	}
	if len(payload) > MaxFrameSize {
		return nil, fmt.Errorf("wire: %w (%d bytes)", ErrFrameTooLarge, len(payload))
	}
	buf = append(buf, f.Type)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...), nil
}

// Writer encodes frames onto a buffered stream. Not safe for concurrent
// use; callers that write from several goroutines must serialize.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// WriteFrame encodes f into the write buffer. Call Flush to push buffered
// frames to the connection.
func (w *Writer) WriteFrame(f *Frame) error {
	buf, err := AppendFrame(w.buf[:0], f)
	if err != nil {
		return err
	}
	w.buf = buf[:0]
	_, err = w.bw.Write(buf)
	return err
}

// Flush flushes the buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader decodes frames from a buffered stream. Not safe for concurrent
// use.
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

// NewReader returns a Reader over r that rejects frames larger than
// MaxFrameSize.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), max: MaxFrameSize}
}

// ReadFrame reads and decodes the next frame. The returned frame's Values
// slice is freshly allocated per call. On a clean EOF between frames it
// returns io.EOF; a connection cut mid-frame surfaces
// io.ErrUnexpectedEOF.
func (r *Reader) ReadFrame() (*Frame, error) {
	typ, err := r.br.ReadByte()
	if err != nil {
		return nil, err // io.EOF between frames is the clean-close signal
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, eofMidFrame(err)
	}
	if n > uint64(r.max) {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, eofMidFrame(err)
	}
	return DecodeFrame(typ, payload)
}

func eofMidFrame(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeFrame decodes one frame from its type byte and payload. The
// payload must be exactly the frame's encoded payload: trailing garbage is
// an error, so a corrupt length prefix cannot silently truncate or pad a
// frame.
func DecodeFrame(typ byte, payload []byte) (*Frame, error) {
	d := enc.NewReader(payload)
	f := &Frame{Type: typ}
	switch typ {
	case TypeHello:
		magic := d.Bytes(len(Magic))
		if d.Err() == nil && string(magic) != Magic {
			return nil, fmt.Errorf("wire: bad magic %q (not an hsq ingest client?)", magic)
		}
		f.Version = d.Byte()
		f.Session = d.String(MaxSessionLen)
		if d.Len() > 0 { // v2 trailing flags
			f.Flags = d.Uvarint()
		}
	case TypeWelcome:
		f.Version = d.Byte()
		f.Seq = d.Uvarint()
		f.Credit = d.Uvarint()
		if d.Len() > 0 { // v2 per-stream marks
			// Each entry costs at least 2 bytes (empty name len + seq), so
			// Count's one-byte-per-element bound holds before allocating.
			count := d.Count()
			f.StreamSeqs = make([]StreamSeq, 0, count)
			for i := 0; i < count && d.Err() == nil; i++ {
				name := d.String(MaxFrameSize)
				f.StreamSeqs = append(f.StreamSeqs, StreamSeq{Name: name, Seq: d.Uvarint()})
			}
		}
	case TypeOpenStream:
		f.StreamID = d.Uvarint()
		f.Name = d.String(MaxFrameSize)
	case TypeBatch:
		f.Seq = d.Uvarint()
		f.StreamID = d.Uvarint()
		// uvarint count | deltas: even 1-byte-per-value encoding cannot fit
		// more values than payload bytes, so Values rejects a lying count
		// before allocating.
		f.Values = d.Values()
	case TypeEndStep:
		f.Seq = d.Uvarint()
		f.StreamID = d.Uvarint()
	case TypeFlush:
		f.Seq = d.Uvarint()
	case TypeAck:
		f.Seq = d.Uvarint()
		f.Credit = d.Uvarint()
	case TypeError:
		f.Code = d.Uvarint()
		f.Message = d.String(MaxFrameSize)
	case TypePing, TypePong:
		f.Seq = d.Uvarint()
	case TypeSummaryReq:
		f.Seq = d.Uvarint()
		f.Name = d.String(MaxFrameSize)
	case TypeSummaryResp:
		f.Seq = d.Uvarint()
		f.Code = d.Uvarint()
		f.Message = d.String(MaxFrameSize)
		f.Data = d.Blob(MaxFrameSize)
	case TypeSubscribe:
		f.StreamID = d.Uvarint()
		f.Credit = d.Uvarint()
		f.Data = d.Blob(MaxFrameSize)
	case TypeUnsubscribe:
		f.StreamID = d.Uvarint()
	case TypePush:
		f.StreamID = d.Uvarint()
		f.Seq = d.Uvarint()
		f.Code = d.Uvarint()
		f.Message = d.String(MaxFrameSize)
		f.Data = d.Blob(MaxFrameSize)
	default:
		return nil, fmt.Errorf("wire: unknown frame type %#x", typ)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("wire: decode %s frame: %w", TypeName(typ), d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wire: decode %s frame: %d trailing bytes", TypeName(typ), d.Len())
	}
	return f, nil
}

// TypeName returns a short human-readable name for a frame type byte.
func TypeName(typ byte) string {
	switch typ {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeOpenStream:
		return "open-stream"
	case TypeBatch:
		return "batch"
	case TypeEndStep:
		return "end-step"
	case TypeFlush:
		return "flush"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeSummaryReq:
		return "summary-req"
	case TypeSummaryResp:
		return "summary-resp"
	case TypeSubscribe:
		return "subscribe"
	case TypeUnsubscribe:
		return "unsubscribe"
	case TypePush:
		return "push"
	default:
		return fmt.Sprintf("%#x", typ)
	}
}

// SplitBatch splits vs into chunks whose encoded Batch frames stay under
// MaxFrameSize regardless of value distribution (10 bytes is the widest
// varint). Senders use it so arbitrarily large ObserveSlice calls never
// produce an oversized frame.
func SplitBatch(vs []int64) [][]int64 {
	// Per-value worst case 10 bytes + ~30 bytes header fields.
	const maxPerFrame = (MaxFrameSize - 64) / 10
	if len(vs) <= maxPerFrame {
		return [][]int64{vs}
	}
	var out [][]int64
	for len(vs) > 0 {
		n := min(len(vs), maxPerFrame)
		out = append(out, vs[:n])
		vs = vs[n:]
	}
	return out
}
