package hsqclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/query"
)

// newPushHarness is newHarness with a fast push debounce, so subscribe
// tests don't wait out the production settle window.
func newPushHarness(t *testing.T) *harness {
	t.Helper()
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Backend: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	srv := ingest.New(ingest.Config{DB: db, Logf: t.Logf, PushDebounce: time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		srv.Shutdown(context.Background()) //nolint:errcheck
		db.Close()                         //nolint:errcheck
	})
	return &harness{db: db, srv: srv, addr: l.Addr().String()}
}

// waitUpdate receives the next update within a deadline.
func waitUpdate(t *testing.T, sub *Subscription) Update {
	t.Helper()
	select {
	case u, ok := <-sub.Updates():
		if !ok {
			t.Fatal("updates channel closed")
		}
		return u
	case <-time.After(30 * time.Second):
		t.Fatal("no push within deadline")
	}
	panic("unreachable")
}

// TestSubscribeEndToEnd drives the full continuous-query path over a real
// socket: subscribe, ingest a step, receive the pushed re-evaluation.
func TestSubscribeEndToEnd(t *testing.T) {
	h := newPushHarness(t)
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	sub, err := c.Subscribe(context.Background(),
		[]byte(`{"match":"api.*","phis":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	// The registration push reflects the pre-ingest state: no streams.
	first := waitUpdate(t, sub)
	if first.Err != nil {
		t.Fatalf("initial push: %v", first.Err)
	}
	var res query.Result
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatalf("initial result: %v\n%s", err, first.Result)
	}
	if len(res.Streams) != 0 {
		t.Fatalf("initial member set = %v, want empty", res.Streams)
	}

	st := c.Stream("api.latency")
	for v := int64(1); v <= 500; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// EndStep landed server-side; a push with the stream's data follows.
	// Coalescing may fold several evaluations — poll updates until one
	// carries the data.
	deadline := time.After(30 * time.Second)
	for {
		var u Update
		select {
		case u = <-sub.Updates():
		case <-deadline:
			t.Fatal("no data-carrying push after EndStep")
		}
		if u.Err != nil {
			t.Fatalf("push error: %v", u.Err)
		}
		if err := json.Unmarshal(u.Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) == 1 && res.Groups[0].Windows[0].N == 500 {
			got := res.Groups[0].Windows[0].Values[0]
			if got < 212 || got > 288 { // 250 ± ⌈1.5·0.05·500⌉
				t.Fatalf("pushed median %d outside bound", got)
			}
			break
		}
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.Updates(); ok {
		// Drain at most the one coalesced update, then expect closure.
		if _, ok := <-sub.Updates(); ok {
			t.Fatal("updates channel still open after Unsubscribe")
		}
	}
}

// TestSubscribeBadPlanNack pins the per-subscription error path: an
// invalid plan fails the Subscribe call with a PlanError and leaves the
// connection (and other traffic) healthy.
func TestSubscribeBadPlanNack(t *testing.T) {
	h := newPushHarness(t)
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	_, err = c.Subscribe(context.Background(), []byte(`{"phis":[0.5]}`))
	var pe *PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PlanError", err)
	}

	// The connection survived the nack: ingest still works.
	st := c.Stream("api.latency")
	if err := st.Observe(7); err != nil {
		t.Fatal(err)
	}
	if err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng, ok := h.db.Lookup("api.latency"); !ok || eng.TotalCount() != 1 {
		t.Fatal("ingest broken after plan nack")
	}
}

// TestSubscribePushDuringIngest races continuous pushes against a hot
// ingest loop — the -race exercise for the subscription registry, the
// shared write path, and the EndStep notification hook.
func TestSubscribePushDuringIngest(t *testing.T) {
	h := newPushHarness(t)
	c, err := Dial(h.addr, WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	sub, err := c.Subscribe(context.Background(),
		[]byte(`{"match":"load.**","group_by":2,"phis":[0.5,0.9]}`))
	if err != nil {
		t.Fatal(err)
	}
	var pushes atomic.Int64
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for u := range sub.Updates() {
			if u.Err == nil {
				pushes.Add(1)
			}
		}
	}()

	streams := []*Stream{c.Stream("load.a"), c.Stream("load.b"), c.Stream("load.c")}
	for step := 0; step < 20; step++ {
		for _, st := range streams {
			for v := int64(0); v < 100; v++ {
				if err := st.Observe(v + int64(step)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every EndStep marked the subscription dirty; at least one push must
	// land after the final flush settles.
	deadline := time.Now().Add(30 * time.Second)
	for pushes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pushes.Load() == 0 {
		t.Fatal("no pushes during ingest churn")
	}
	// A push re-evaluates the merged plan from summaries alone.
	if rr := h.db.DiskStats().RandReads; rr != 0 {
		t.Errorf("ingest and pushes cost %d backend random reads, want 0", rr)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	<-recvDone
}
