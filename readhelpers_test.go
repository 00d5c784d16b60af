package hsq

import (
	"context"
	"testing"
)

// Helpers exported so the external (hsq_test) tests share them with the
// internal ones: the one-stream DB most engine tests run in, and shorthands
// over the one read call for single-target requests.

// OneStreamName is the stream OneStream opens.
const OneStreamName = "s"

// OneStream opens a DB on opts and returns its stream OneStreamName, created
// or — over a device that already holds it — resumed. The DB is closed when
// the test ends (Close is idempotent, so a test may close it earlier).
func OneStream(tb testing.TB, opts Options) *Stream {
	tb.Helper()
	db, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() }) //nolint:errcheck
	st, err := db.Stream(OneStreamName)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// Query1 runs a single-target request.
func Query1(r *Stream, req Request) (int64, QueryStats, error) {
	return one(r.Query(context.Background(), req))
}

// QuantileQuick is the in-memory φ-quantile (Algorithm 5).
func QuantileQuick(r *Stream, phi float64) (int64, error) {
	v, _, err := Query1(r, Request{Phis: []float64{phi}, Quick: true})
	return v, err
}

// RankQuick is the in-memory rank of v.
func RankQuick(r *Stream, v int64) (int64, error) {
	rank, _, err := Query1(r, Request{Values: []int64{v}, Quick: true})
	return rank, err
}
