package trace

import (
	"reflect"
	"testing"
)

// countStream yields n references whose fields encode their position,
// then ends; n < 0 never ends.
type countStream struct {
	n, i int
}

func (c *countStream) Next(r *Ref) bool {
	if c.n >= 0 && c.i >= c.n {
		return false
	}
	*r = Ref{Addr: uint64(c.i) * 64, PC: uint32(c.i), Gap: uint32(c.i % 7), Kind: Kind(c.i % 3), DepPrev: c.i%5 == 0}
	c.i++
	return true
}

// producerDone reports whether p's producer goroutine has exited.
func producerDone(p *Pipe) bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// TestPipeReplaysSourceExactly: through Next, through Fill in odd-sized
// pieces, or mixing both, a pipe yields exactly the source's sequence and
// ends where the source ends, at lengths on and around every batch size
// of the read-ahead ramp.
func TestPipeReplaysSourceExactly(t *testing.T) {
	lengths := []int{0, 1, minBatch - 1, minBatch, minBatch + 1, 3 * minBatch, MaxBatch, MaxBatch + 1, 5*MaxBatch + 17}
	for _, n := range lengths {
		want := Collect(&countStream{n: n}, n+1)
		for _, mode := range []string{"next", "fill", "mixed"} {
			p := NewPipe(&countStream{n: n})
			var got []Ref
			var r Ref
			buf := make([]Ref, 333)
			for step := 0; ; step++ {
				if mode == "next" || (mode == "mixed" && step%2 == 0) {
					if !p.Next(&r) {
						break
					}
					got = append(got, r)
					continue
				}
				k := Fill(p, buf)
				got = append(got, buf[:k]...)
				if k < len(buf) {
					break
				}
			}
			if p.Next(&r) {
				t.Fatalf("n=%d %s: pipe yielded a reference after its end", n, mode)
			}
			p.Close()
			if !producerDone(p) {
				t.Fatalf("n=%d %s: producer still running after Close", n, mode)
			}
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d %s: pipe yielded %d refs, not the source's %d in order", n, mode, len(got), n)
			}
		}
	}
}

// TestPipeCloseStopsProducer: closing mid-stream (an infinite source the
// producer is blocked ahead of) returns only after the producer exits,
// the pipe yields nothing afterwards, and a second Close is harmless.
func TestPipeCloseStopsProducer(t *testing.T) {
	for _, consumed := range []int{0, 1, MaxBatch, 3*MaxBatch + 5} {
		p := NewPipe(&countStream{n: -1})
		buf := make([]Ref, consumed)
		if got := Fill(p, buf); got != consumed {
			t.Fatalf("infinite source filled %d of %d", got, consumed)
		}
		for i, r := range buf {
			if r.PC != uint32(i) {
				t.Fatalf("ref %d has PC %d", i, r.PC)
			}
		}
		p.Close()
		if !producerDone(p) {
			t.Fatalf("consumed=%d: producer still running after Close", consumed)
		}
		var r Ref
		if p.Next(&r) || Fill(p, buf[:cap(buf)]) != 0 {
			t.Fatalf("consumed=%d: closed pipe yielded references", consumed)
		}
		p.Close()
	}
}

// TestPipeReadAheadBounded: a producer never reads more than its buffers
// hold past what the consumer took.
func TestPipeReadAheadBounded(t *testing.T) {
	src := &countStream{n: -1}
	p := NewPipe(src)
	var r Ref
	if !p.Next(&r) {
		t.Fatal("no first reference")
	}
	p.Close() // the producer's reads of src happen before it exits
	if src.i > pipeBuffers*MaxBatch {
		t.Fatalf("producer read %d refs ahead, more than %d buffers of %d", src.i, pipeBuffers, MaxBatch)
	}
}

type panicStream struct{ after int }

func (s *panicStream) Next(r *Ref) bool {
	if s.after == 0 {
		panic("source broke")
	}
	s.after--
	return true
}

// TestPipeForwardsSourcePanic: a source that panics on the producer
// goroutine panics the consumer instead, after the references it did
// produce, and the producer has exited.
func TestPipeForwardsSourcePanic(t *testing.T) {
	p := NewPipe(&panicStream{after: 10})
	defer p.Close()
	var r Ref
	got := 0
	defer func() {
		if v := recover(); v != "source broke" {
			t.Fatalf("recovered %v, want the source's panic", v)
		}
		if got != 0 {
			// The panic interrupted the first batch, so no refs arrive.
			t.Fatalf("got %d refs before the panic", got)
		}
		if !producerDone(p) {
			t.Fatal("producer still running after forwarding its panic")
		}
	}()
	for p.Next(&r) {
		got++
	}
	t.Fatal("pipe ended without forwarding the panic")
}

// TestFillFallsBackToNext: Fill on a stream without the fast path reads
// it one reference at a time and reports the stream's end.
func TestFillFallsBackToNext(t *testing.T) {
	s := &Limit{S: &countStream{n: -1}, N: 10}
	buf := make([]Ref, 8)
	if n := Fill(s, buf); n != 8 || buf[7].PC != 7 {
		t.Fatalf("first fill = %d (last PC %d)", n, buf[7].PC)
	}
	if n := Fill(s, buf); n != 2 || buf[1].PC != 9 {
		t.Fatalf("second fill = %d, want the 2 refs left", n)
	}
	sl := &SliceStream{Refs: Collect(&countStream{n: 5}, 5)}
	if n := Fill(sl, buf); n != 5 || buf[4].PC != 4 {
		t.Fatalf("slice fill = %d", n)
	}
}
