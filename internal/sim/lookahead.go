package sim

// Lookahead draws a stream of values from a private RNG ahead of their use,
// on one helper goroutine, so the draws overlap the serial event loop that
// consumes them. It takes ownership of the RNG: the helper is the only
// reader from construction on, and Next hands values out in exactly the
// order the helper drew them. The stream a consumer sees is therefore
// bit-identical to calling draw(rng) inline at each use; what changes is
// only which core computes it.
//
// The helper runs at most lookaheadBlocks blocks of lookaheadBlock values
// ahead. Values drawn but never consumed before Close are discarded; since
// the RNG is private, nothing else ever observes them.
//
// A Lookahead has one consumer: Next and Close must not be called
// concurrently, and Next must not be called after Close.
type Lookahead struct {
	full chan []float64 // drawn blocks, in production order
	free chan []float64 // consumed blocks, back to the helper
	stop chan struct{}
	done chan struct{}

	cur    []float64
	i      int
	closed bool
}

// Block geometry. A block amortizes the channel handoff and the helper's
// wake-up over many values; the block count bounds how far the helper runs
// ahead, which is also the most it can overdraw before Close. On a 2-core
// host, 1024-value blocks ran a managed colocation about a fifth faster
// than 256-value ones, and at four blocks the overdraw stays a few
// thousand values per stream.
const (
	lookaheadBlock  = 1024
	lookaheadBlocks = 4
)

// LookaheadBuf is reusable block storage for a succession of Lookaheads: a
// caller running many short simulations threads one through them so only
// the first allocates. The zero value is ready to use. At most one open
// Lookahead may use a LookaheadBuf at a time.
type LookaheadBuf struct {
	vals []float64
}

// NewLookahead starts a helper drawing draw(rng) values. The caller hands
// rng over and must not use it again. buf, when non-nil, supplies the block
// storage. Close the Lookahead to stop the helper.
func NewLookahead(rng *RNG, draw func(*RNG) float64, buf *LookaheadBuf) *Lookahead {
	if buf == nil {
		buf = &LookaheadBuf{}
	}
	if len(buf.vals) < lookaheadBlock*lookaheadBlocks {
		buf.vals = make([]float64, lookaheadBlock*lookaheadBlocks)
	}
	// Each channel is sized to hold every block, so handing a block over
	// never waits for room; only taking one waits, for the other side.
	l := &Lookahead{
		full: make(chan []float64, lookaheadBlocks),
		free: make(chan []float64, lookaheadBlocks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for b := 0; b < lookaheadBlocks; b++ {
		l.free <- buf.vals[b*lookaheadBlock : (b+1)*lookaheadBlock : (b+1)*lookaheadBlock]
	}
	go l.fill(rng, draw)
	return l
}

// fill is the helper: it draws into free blocks and queues them, in order,
// until Close. The full channel holds every block, so queueing one never
// blocks.
func (l *Lookahead) fill(rng *RNG, draw func(*RNG) float64) {
	defer close(l.done)
	for {
		var blk []float64
		select {
		case blk = <-l.free:
		case <-l.stop:
			return
		}
		for i := range blk {
			blk[i] = draw(rng)
		}
		l.full <- blk
	}
}

// Next returns the next value of the stream.
//
//pliant:hotpath
func (l *Lookahead) Next() float64 {
	if l.i == len(l.cur) {
		l.refill()
	}
	v := l.cur[l.i]
	l.i++
	return v
}

// refill returns the spent block to the helper and takes the next one,
// waiting for the helper if it has fallen behind. The free channel holds
// every block, so returning one never blocks.
func (l *Lookahead) refill() {
	if l.closed {
		panic("sim: Lookahead.Next after Close")
	}
	if l.cur != nil {
		l.free <- l.cur
	}
	l.cur = <-l.full
	l.i = 0
}

// Close stops the helper and waits for it to exit, after which the block
// storage may back another Lookahead. Close is idempotent.
func (l *Lookahead) Close() {
	if l.closed {
		return
	}
	l.closed = true
	close(l.stop)
	<-l.done
	l.cur, l.i = nil, 0
}
