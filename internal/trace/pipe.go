package trace

// Filler is an optional fast path for Stream: Fill writes the next
// references into dst in program order and returns how many it wrote.
// It returns fewer than len(dst) only when the stream has ended.
type Filler interface {
	Fill(dst []Ref) int
}

// Fill pulls up to len(dst) references from s into dst, through s's
// Filler fast path when it has one, and returns how many it wrote; fewer
// than len(dst) means s has ended.
func Fill(s Stream, dst []Ref) int {
	if f, ok := s.(Filler); ok {
		return f.Fill(dst)
	}
	n := 0
	for n < len(dst) && s.Next(&dst[n]) {
		n++
	}
	return n
}

// Fill implements Filler.
func (s *SliceStream) Fill(dst []Ref) int {
	n := copy(dst, s.Refs[s.pos:])
	s.pos += n
	return n
}

// Read-ahead batch sizes: a pipe's first batch is small, so a consumer
// that reads little waits for little generation, and each later batch
// doubles up to MaxBatch.
const (
	minBatch = 256
	// MaxBatch is the largest batch a Pipe reads ahead in one piece.
	MaxBatch = 4096
	// pipeBuffers is the number of batch buffers a pipe owns: one the
	// consumer reads, one the producer fills, one queued between them.
	pipeBuffers = 3
)

// Pipe reads a stream ahead on its own producer goroutine, in batches,
// so generating references overlaps consuming them. The consumer sees
// exactly the source's sequence, ending where the source ends; the
// producer reads at most pipeBuffers batches past the consumer. Close
// stops the producer and waits for it. A Pipe is for one consumer
// goroutine.
type Pipe struct {
	full chan []Ref    // filled batches, in order; closed when the producer exits
	free chan []Ref    // consumed buffers returned to the producer
	stop chan struct{} // closed by Close
	done chan struct{} // closed when the producer has exited

	cur    []Ref // batch being consumed
	pos    int
	ended  bool
	closed bool

	panicked any // a panic raised by the source, re-raised to the consumer
}

// NewPipe starts a producer goroutine reading src ahead. The caller must
// Close the pipe; src must not be used elsewhere until then.
func NewPipe(src Stream) *Pipe {
	p := &Pipe{
		// Both channels hold every buffer the pipe owns, so returning a
		// buffer never blocks and the producer can always queue a batch
		// it has filled.
		full: make(chan []Ref, pipeBuffers),
		free: make(chan []Ref, pipeBuffers),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < pipeBuffers; i++ {
		p.free <- make([]Ref, 0, MaxBatch)
	}
	go p.produce(src)
	return p
}

// produce fills free buffers from src and queues them until src ends or
// the pipe is closed.
func (p *Pipe) produce(src Stream) {
	defer close(p.done)
	defer close(p.full)
	defer func() {
		// A panicking source must not kill the process from a goroutine
		// no caller can recover on: hand the panic to the consumer.
		if r := recover(); r != nil {
			p.panicked = r
		}
	}()
	size := minBatch
	for {
		var buf []Ref
		select {
		case buf = <-p.free:
		case <-p.stop:
			return
		}
		n := Fill(src, buf[:size])
		if n > 0 {
			select {
			case p.full <- buf[:n]:
			case <-p.stop:
				return
			}
		}
		if n < size {
			return // source ended
		}
		if size < MaxBatch {
			size *= 2
		}
	}
}

// next advances to the next filled batch, reporting false at the end of
// the source.
func (p *Pipe) next() bool {
	if p.cur != nil {
		p.free <- p.cur[:0]
		p.cur = nil
	}
	p.pos = 0
	if p.ended {
		return false
	}
	b, ok := <-p.full
	if !ok {
		p.ended = true
		if p.panicked != nil {
			panic(p.panicked)
		}
		return false
	}
	p.cur = b
	return true
}

// Next implements Stream.
func (p *Pipe) Next(r *Ref) bool {
	if p.pos == len(p.cur) && !p.next() {
		return false
	}
	*r = p.cur[p.pos]
	p.pos++
	return true
}

// Fill implements Filler.
func (p *Pipe) Fill(dst []Ref) int {
	n := 0
	for n < len(dst) {
		if p.pos == len(p.cur) && !p.next() {
			break
		}
		c := copy(dst[n:], p.cur[p.pos:])
		p.pos += c
		n += c
	}
	return n
}

// Close stops the producer and returns once it has exited. Close is
// idempotent; after it the pipe yields no more references.
func (p *Pipe) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.ended = true
	p.cur, p.pos = nil, 0
	close(p.stop)
	<-p.done
}
