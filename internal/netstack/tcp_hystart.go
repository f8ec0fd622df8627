package netstack

import "spin/internal/sim"

// Where slow start ends. A connection starts with ssthresh at
// initialSsthresh, RFC 5681 §3.1's "arbitrarily high", and HyStart++ (RFC
// 9406) ends the initial slow start before that wherever the round trip
// starts to rise: a queue is forming, at a NIC, a link or the receiver,
// and another round of doubling would only fill it. Once the minimum RTT
// of a round of at least nRTTSample samples exceeds the last round's by
// RttThresh, the window grows at a quarter of slow start's rate
// (Conservative Slow Start, CSS) for cssRounds rounds and then ssthresh
// is set to it; a round whose minimum falls back below the one that
// started CSS says the rise was noise, and slow start resumes. A loss in
// either ends them as a loss in slow start always has. Later slow starts,
// after a timeout, end at the ssthresh the loss set.

const (
	// initialSsthresh is where the initial slow start ends at the latest,
	// in segments. RFC 5681 §3.1 says arbitrarily high, "e.g., to the
	// size of the largest possible advertised window". It is the window
	// the peer does advertise once windows are scaled, rcvWindow (67
	// segments), which every stack here advertises: the flight never
	// exceeds it, so slow start past it would grow cwnd without sending a
	// segment more, and a loss would then halve, and an undo restore, a
	// window the path never carried. A peer that does not scale
	// advertises 44 segments, and its window binds the flight first.
	initialSsthresh = min(rcvWindow/DefaultMSS, maxCwnd)

	// RFC 9406 §4.3's constants.
	nRTTSample       = 8                    // samples a round needs before its minimum counts
	minRTTThresh     = 4 * sim.Millisecond  // RttThresh's floor
	maxRTTThresh     = 16 * sim.Millisecond // and its ceiling
	minRTTDivisor    = 8                    // RttThresh is the last round's minimum over this
	cssGrowthDivisor = 4                    // CSS grows cwnd this many times slower than slow start
	cssRounds        = 5                    // CSS's length, its partial first round included
)

// hyStart is HyStart++'s round state (RFC 9406 §4.2). It lives in
// lossState, made for it at the first ACK of the initial slow start that
// finds nRTTSample segments in flight, the first round that can yield
// that many samples: a short exchange never makes it. Making it for this
// does not start RACK (lossState.racking).
type hyStart struct {
	// on is set while rounds are tracked, until the initial slow start
	// ends.
	on bool
	// css counts the CSS rounds begun, the one it started in included;
	// 0 in slow start.
	css uint8
	// samples counts the round's RTT samples, up to nRTTSample.
	samples uint8
	// cssAcked counts the segments acknowledged in CSS since cwnd last
	// grew.
	cssAcked uint8
	// end is SND.NXT when the round began: an ACK reaching it begins the
	// next (windowEnd).
	end uint32
	// curMin and lastMin are this round's and the last round's least
	// RTT; baseline is curMin when CSS began (currentRoundMinRTT,
	// lastRoundMinRTT, cssBaselineMinRtt). 0 is none yet.
	curMin, lastMin, baseline sim.Duration
}

// initialSlowStart reports whether the connection is in its initial slow
// start, the one HyStart++ ends: ssthresh has not moved from its first
// value, which only a loss or the end of CSS moves.
func (c *Conn) initialSlowStart() bool {
	return c.ssthresh == initialSsthresh && c.cwnd < c.ssthresh
}

// hyRound runs at an ACK of new data, before the ACK's RTT sample is
// taken. In the initial slow start it begins tracking rounds once
// nRTTSample segments are in flight, and begins the next round when the
// ACK reaches the end of the last; after cssRounds rounds of CSS it ends
// slow start with ssthresh at cwnd.
func (c *Conn) hyRound(ack uint32) {
	if !c.initialSlowStart() {
		return
	}
	if x := c.loss; x == nil || !x.hy.on {
		if len(c.inflight) >= nRTTSample {
			if c.loss == nil {
				c.loss = new(lossState)
			}
			c.loss.hy = hyStart{on: true, end: c.sndNxt}
		}
		return
	}
	h := &c.loss.hy
	if int32(ack-h.end) < 0 {
		return
	}
	if h.css == cssRounds {
		c.ssthresh, h.on = c.cwnd, false
		return
	}
	if h.css > 0 {
		h.css++
	}
	h.lastMin, h.curMin, h.samples, h.end = h.curMin, 0, 0, c.sndNxt
}

// sample folds an RTT sample into the round.
func (h *hyStart) sample(r sim.Duration) {
	if h.curMin == 0 || r < h.curMin {
		h.curMin = r
	}
	h.samples = min(h.samples+1, nRTTSample)
}

// hyCheck runs at an ACK of new data once its sample is taken, and
// reports whether the initial slow start is in CSS. With nRTTSample
// samples in the round, slow start enters CSS if the round's minimum RTT
// is RttThresh above the last round's, and CSS goes back to slow start if
// it has fallen below the baseline CSS began at.
func (c *Conn) hyCheck() bool {
	x := c.loss
	if x == nil || !x.hy.on || !c.initialSlowStart() {
		return false
	}
	h := &x.hy
	switch {
	case h.samples < nRTTSample:
	case h.css == 0 && h.lastMin != 0 && h.curMin >= h.lastMin+rttThresh(h.lastMin):
		h.css, h.baseline, h.cssAcked = 1, h.curMin, 0
		c.tcp.hystartCSS++
	case h.css > 0 && h.curMin < h.baseline:
		h.css, h.baseline = 0, 0
		c.tcp.hystartResumed++
	}
	return h.css > 0
}

// rttThresh is how far a round's minimum RTT must rise above the last
// round's to end slow start: an eighth of it, between 4 and 16 ms.
func rttThresh(lastMin sim.Duration) sim.Duration {
	return max(minRTTThresh, min(lastMin/minRTTDivisor, maxRTTThresh))
}
