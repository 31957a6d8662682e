package netem

import (
	"testing"

	"mptcpsim/internal/sim"
)

// TestQueueRingBacklog drives each discipline's backlog through the shapes
// its ring buffer must get right: a head that wraps (fill, drain part,
// refill), growth past the initial capacity while wrapped, tail drops at
// the limit, and a line-rate change with packets queued. Departures keep
// arrival order and arrive on schedule, Len tracks the backlog at every
// step, and with pool debugging on every packet — delivered or dropped —
// is freed exactly once.
func TestQueueRingBacklog(t *testing.T) {
	const limit = 12
	red := PaperRED(10e6)
	red.LimitPkts = limit // tail drops only: the EWMA stays far below MinTh
	for _, tc := range []struct {
		name string
		mk   func(*sim.Sim) Queue
	}{
		{"droptail", func(s *sim.Sim) Queue { return NewDropTail(s, 10e6, limit, "q") }},
		{"red", func(s *sim.Sim) Queue { return NewRED(s, 10e6, red, "q") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			pl := PoolFor(s)
			pl.SetDebug(true)
			q := tc.mk(s)
			var got []delivery
			c := &Collector{OnRecv: func(p *Packet) {
				got = append(got, delivery{p.Seq, s.Now()})
				st := q.Stats()
				if want := int(st.ArrivedPkts - st.DroppedPkts - st.SentPkts); q.Len() != want {
					t.Errorf("Len = %d at delivery of %d, want %d", q.Len(), p.Seq, want)
				}
			}}
			route := NewRoute(q, c)
			allocated := map[*Packet]bool{}
			var next int64
			send := func(k int) {
				for range k {
					p := pl.NewData(0, next, MSS, s.Now(), route)
					allocated[p] = true
					next++
					p.SendOn()
				}
			}
			wantLen := func(step string, n int) {
				t.Helper()
				if q.Len() != n {
					t.Fatalf("%s: Len = %d, want %d", step, q.Len(), n)
				}
			}

			tx := sim.TxTime(MSS, 10e6) // 1.2 ms
			send(5)
			wantLen("fill", 5)
			s.RunUntil(3 * tx) // drains seqs 0-2: the head moves off index 0
			wantLen("drain", 2)
			send(6) // fills the initial 8 slots with the tail wrapped round
			wantLen("wrap", 8)
			send(6) // grows while wrapped, then drops seqs 15 and 16 at the limit
			wantLen("grow", limit)
			q.SetRateBps(20e6) // seq 3 finishes at the old rate; the rest at the new
			s.Run()
			wantLen("end", 0)

			tx2 := sim.TxTime(MSS, 20e6)
			if len(got) != 15 {
				t.Fatalf("delivered %d packets, want 15", len(got))
			}
			for i, d := range got {
				at := sim.Time(i+1) * tx
				if i > 3 {
					at = 4*tx + sim.Time(i-3)*tx2
				}
				if d != (delivery{int64(i), at}) {
					t.Fatalf("delivery %d = %+v, want seq %d at %v", i, d, i, at)
				}
			}
			st := q.Stats()
			if st.ArrivedPkts != 17 || st.SentPkts != 15 || st.DroppedPkts != 2 {
				t.Fatalf("counters off: %+v", st)
			}
			if pl.FreeCount() != len(allocated) {
				t.Fatalf("pool holds %d of %d packets after drain", pl.FreeCount(), len(allocated))
			}
		})
	}
}
