package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is the error a Reader latches when the payload ends inside
// a field.
var ErrTruncated = errors.New("truncated")

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
