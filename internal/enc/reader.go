package enc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// ErrTruncated is the error a Reader latches when the payload ends inside
// a field. It is io.ErrUnexpectedEOF itself, so a payload cut short inside
// its length prefix and a connection cut mid-frame (wire.Reader) are one
// error to callers.
var ErrTruncated = io.ErrUnexpectedEOF

// Reader is an error-latching cursor over an untrusted binary payload: the
// first malformed field records an error and every later read returns zero,
// so a decoder reads a whole record straight through and checks Err once.
// Declared lengths are checked against the bytes actually left before
// anything is allocated, so a lying length cannot force a huge allocation.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes reads the next n bytes. The result aliases the payload; callers that
// keep it past the payload's lifetime copy it (see Blob).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// prefixed reads a uvarint length no greater than max, then that many bytes.
func (r *Reader) prefixed(what string, max int) []byte {
	n := r.Uvarint()
	if r.err == nil && n > uint64(max) {
		r.fail(fmt.Errorf("%s length %d exceeds %d", what, n, max))
	}
	return r.Bytes(int(n))
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.prefixed("string", max)) }

// Blob reads a length-prefixed byte string of at most max bytes into a fresh
// slice — payload buffers are reused by their owners. A zero length is nil.
func (r *Reader) Blob(max int) []byte {
	b := r.prefixed("blob", max)
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(fmt.Errorf("bad uvarint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Count reads a collection length whose elements each occupy at least one
// byte of the payload, and rejects one that exceeds the bytes left.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("declared count %d exceeds input", n))
		return 0
	}
	return int(n)
}

// Values reads a delta-encoded value list (uvarint length + deltas); an
// empty list is nil.
func (r *Reader) Values() []int64 {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	rest, err := DecodeDelta(vs, r.buf)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.buf = rest
	return vs
}
