package spin_test

import (
	"fmt"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// Every way one fault can hit the first frames of a short stream, not the
// ones a seed happens to pick. A 16-segment transfer crosses the clean
// dumbbell once per schedule: with no fault, and with each of its first 12
// data frames dropped or held back past the frames behind it. Under every
// schedule the stream arrives byte for byte, nothing is left queued or
// armed, and a retransmission timeout fires only where it has to: where no
// segment sent after the faulted one was delivered to say it was missing.
func TestTCPSingleFaultSchedules(t *testing.T) {
	const segments, faultable = 16, 12
	// Held back this long, a frame is overtaken by any that follow it at
	// line rate within a quarter of the round trip.
	const holdBack = 300 * sim.Microsecond
	type fault struct {
		frame int // 1-based data frame on the bottleneck; 0 for none
		drop  bool
	}
	schedules := []fault{{}}
	for k := 1; k <= faultable; k++ {
		schedules = append(schedules, fault{k, true}, fault{k, false})
	}
	for _, f := range schedules {
		name := "none"
		if f.frame > 0 {
			name = fmt.Sprintf("delay-past-next@%d", f.frame)
			if f.drop {
				name = fmt.Sprintf("drop@%d", f.frame)
			}
		}
		t.Run(name, func(t *testing.T) {
			in := benchDumbbell(t, 1, vnet.LinkModel{})
			sender := in.Machine("l0").Stack.TCP()
			frames, laterDelivered := 0, false
			in.Link("bottleneck").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
				pkt, _ := ev.Frame.Payload.(*netstack.Packet)
				if pkt == nil || len(pkt.Payload) == 0 || ev.Dir != "sl->sr" {
					return vnet.Pass
				}
				switch frames++; {
				case frames == f.frame && f.drop:
					return vnet.Drop
				case frames == f.frame:
					ev.ExtraDelay += holdBack
				case f.frame > 0 && frames > f.frame && sender.Stats().RTOs == 0:
					laterDelivered = true
				}
				return vnet.Pass
			})
			runFlows(t, in, 1, segments*netstack.DefaultMSS)
			in.Run(0)
			want := int64(0)
			if f.drop && !laterDelivered {
				want = 1
			}
			if rtos := sender.Stats().RTOs; rtos != want {
				t.Errorf("%d retransmission timeouts, want %d (a later segment delivered before any: %v)", rtos, want, laterDelivered)
			}
			for _, m := range []string{"l0", "r0"} {
				if queued, armed := in.Machine(m).Stack.TCP().Unsettled(); queued != 0 || armed != 0 {
					t.Errorf("%s: %d connections hold out-of-order data and %d a running timer after the run", m, queued, armed)
				}
			}
		})
	}
}
