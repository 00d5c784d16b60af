package disk

import (
	"sync/atomic"
	"time"
)

// Latency models a storage medium by injecting a fixed delay per block
// operation. The paper's cost model assumes a fast hard disk at ~1 ms per
// block access (§2.4 example); file-system caches on a development machine
// make real timings meaningless at small scale, so experiments can opt into
// simulated latency to recover the paper's time-vs-I/O proportionality.
type Latency struct {
	// SeqRead, SeqWrite and RandRead delay the respective operations.
	// Sequential operations on spinning media amortize seeks, so they are
	// typically set 10-100× lower than RandRead.
	SeqRead, SeqWrite, RandRead time.Duration
}

// HDD is a spinning-disk profile: ~1 ms random access (the paper's
// assumption), sequential transfers amortized to 50 µs per 100 KB block.
var HDD = Latency{SeqRead: 50 * time.Microsecond, SeqWrite: 50 * time.Microsecond, RandRead: time.Millisecond}

// SSD is a flash profile: 80 µs random reads, 20 µs sequential block
// transfers.
var SSD = Latency{SeqRead: 20 * time.Microsecond, SeqWrite: 20 * time.Microsecond, RandRead: 80 * time.Microsecond}

// SetLatency installs a simulated latency profile device-wide (it applies
// to every namespaced view of the device); the zero Latency disables
// simulation. Safe to call concurrently with I/O.
func (m *Manager) SetLatency(l Latency) {
	m.dev.latSeqRead.Store(int64(l.SeqRead))
	m.dev.latSeqWrite.Store(int64(l.SeqWrite))
	m.dev.latRandRead.Store(int64(l.RandRead))
}

// sleepFor blocks for the simulated duration of op, if any. Only gate calls
// it, after the fault hook.
func (m *Manager) sleepFor(op Op) {
	var d int64
	switch op {
	case OpSeqRead:
		d = m.dev.latSeqRead.Load()
	case OpSeqWrite:
		d = m.dev.latSeqWrite.Load()
	case OpRandRead:
		d = m.dev.latRandRead.Load()
	}
	if d > 0 {
		time.Sleep(time.Duration(d))
		m.dev.simulatedNs.Add(d)
	}
}

// SimulatedLatency returns the total simulated delay injected so far,
// device-wide.
func (m *Manager) SimulatedLatency() time.Duration {
	return time.Duration(m.dev.simulatedNs.Load())
}

// latencyFields are embedded in the shared device (declared here to keep
// the latency concern in one file).
type latencyFields struct {
	latSeqRead  atomic.Int64
	latSeqWrite atomic.Int64
	latRandRead atomic.Int64
	simulatedNs atomic.Int64
}
