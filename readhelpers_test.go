package hsq

import "context"

// Shorthands over the one read call for single-target requests, exported
// so the external (hsq_test) tests share them with the internal ones.

// Reader is an Engine or a Stream.
type Reader interface {
	Query(context.Context, Request) (Answer, error)
}

// Query1 runs a single-target request.
func Query1(r Reader, req Request) (int64, QueryStats, error) {
	return one(r.Query(context.Background(), req))
}

// QuantileQuick is the in-memory φ-quantile (Algorithm 5).
func QuantileQuick(r Reader, phi float64) (int64, error) {
	v, _, err := Query1(r, Request{Phis: []float64{phi}, Quick: true})
	return v, err
}

// RankQuick is the in-memory rank of v.
func RankQuick(r Reader, v int64) (int64, error) {
	rank, _, err := Query1(r, Request{Values: []int64{v}, Quick: true})
	return rank, err
}
