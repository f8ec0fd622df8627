package spin_test

import (
	"fmt"
	"testing"

	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// Every way one fault can hit the first frames of a stream, not the ones a
// seed happens to pick. A stream crosses the clean dumbbell once per
// schedule: with no fault, with each of its first 12 data frames dropped or
// held back past the frames behind it, and with each of the first 12 ACKs
// coming back dropped or held back. It runs at 16 segments, and at 64
// (named "64-segments/..."), which carries it out of the initial slow start
// past where ssthresh once ended it. Under every schedule the stream arrives
// byte for byte, nothing is left queued or armed, and a retransmission
// timeout fires only where it has to: where no segment sent after a dropped
// one was delivered to say it was missing. A lost or late ACK is covered by
// the cumulative ACK behind it, so it never costs one.
func TestTCPSingleFaultSchedules(t *testing.T) {
	const faultable = 12
	// Held back this long, a frame is overtaken by any that follow it at
	// line rate within a quarter of the round trip.
	const holdBack = 300 * sim.Microsecond
	type fault struct {
		frame     int // 1-based data frame, or ACK, on the bottleneck; 0 for none
		drop, ack bool
	}
	schedules := []fault{{}}
	for _, a := range []bool{false, true} {
		for k := 1; k <= faultable; k++ {
			schedules = append(schedules, fault{k, true, a}, fault{k, false, a})
		}
	}
	for _, segments := range []int{16, 64} {
		for _, f := range schedules {
			name := "none"
			if f.frame > 0 {
				name = fmt.Sprintf("delay-past-next@%d", f.frame)
				if f.drop {
					name = fmt.Sprintf("drop@%d", f.frame)
				}
				if f.ack {
					name = "ack-" + name
				}
			}
			if segments != 16 {
				name = fmt.Sprintf("%d-segments/%s", segments, name)
			}
			t.Run(name, func(t *testing.T) {
				in := benchDumbbell(t, 1, vnet.LinkModel{})
				sender := in.Machine("l0").Stack.TCP()
				dir := "sl->sr"
				if f.ack {
					dir = "sr->sl"
				}
				frames, laterDelivered := 0, false
				in.Link("bottleneck").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
					pkt, _ := ev.Frame.Payload.(*netstack.Packet)
					if pkt == nil || ev.Dir != dir || (len(pkt.Payload) == 0) != f.ack || pkt.Flags&netstack.FlagSYN != 0 {
						return vnet.Pass
					}
					switch frames++; {
					case frames == f.frame && f.drop:
						return vnet.Drop
					case frames == f.frame:
						ev.ExtraDelay += holdBack
					case f.frame > 0 && frames > f.frame && metrics.Value(sender, "net_tcp_rtos") == 0:
						laterDelivered = true
					}
					return vnet.Pass
				})
				runFlows(t, in, 1, segments*netstack.DefaultMSS)
				in.Run(0)
				if frames < f.frame {
					t.Fatalf("%d frames crossed in that direction, too few to fault the %dth", frames, f.frame)
				}
				want := 0.0
				if f.drop && !f.ack && !laterDelivered {
					want = 1
				}
				if rtos := metrics.Value(sender, "net_tcp_rtos"); rtos != want {
					t.Errorf("%v retransmission timeouts, want %v (a later segment delivered before any: %v)", rtos, want, laterDelivered)
				}
				for _, m := range []string{"l0", "r0"} {
					if queued, armed := in.Machine(m).Stack.TCP().Unsettled(); queued != 0 || armed != 0 {
						t.Errorf("%s: %d connections hold out-of-order data and %d a running timer after the run", m, queued, armed)
					}
				}
			})
		}
	}
}
