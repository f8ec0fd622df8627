package netstack

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"spin/internal/metrics"
	"spin/internal/sal"
	"spin/internal/sim"
)

func TestDNSMessageRoundTrip(t *testing.T) {
	msgs := []*DNSMessage{
		{ID: 1, RD: true, Questions: []DNSQuestion{{Name: "web.spin.test", Type: DNSTypeA}}},
		{ID: 0xBEEF, Response: true, RD: true, RA: true,
			Questions: []DNSQuestion{{Name: "web.spin.test", Type: DNSTypeA}},
			Answers: []DNSRR{
				{Name: "web.spin.test", Type: DNSTypeA, TTL: 60, Data: []byte{10, 0, 0, 2}},
				{Name: "web.spin.test", Type: DNSTypeA, TTL: 60, Data: []byte{10, 0, 0, 3}},
			}},
		{ID: 7, Response: true, RCode: DNSRCodeNXDomain,
			Questions: []DNSQuestion{{Name: "nope.spin.test", Type: DNSTypeA}}},
		{ID: 9, Questions: []DNSQuestion{{Name: "v6.spin.test", Type: DNSTypeAAAA}}},
		{ID: 3}, // header-only
	}
	for _, m := range msgs {
		wire, err := EncodeDNSMessage(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := ParseDNSMessage(wire)
		if err != nil {
			t.Fatalf("parse %+v: %v", m, err)
		}
		round, err := EncodeDNSMessage(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(wire, round) {
			t.Errorf("round trip not canonical:\n  %x\n  %x", wire, round)
		}
	}
}

// Names on their way into a message: which are refused, and the labels the
// accepted ones are written as.
func TestEncodeDNSNameLabels(t *testing.T) {
	l63 := strings.Repeat("a", 63)
	cases := []struct {
		name   string
		labels []string // nil: refused
	}{
		{"web.spin.test", []string{"web", "spin", "test"}},
		{"Web.SPIN.test.", []string{"web", "spin", "test"}},
		{"host", []string{"host"}},
		{"", []string{}},
		{".", []string{}},
		{l63 + ".test", []string{l63, "test"}},
		{l63 + "a.test", nil},
		{"a..b", nil},
		{".a", nil},
		{"a..", nil},
		{"..", nil},
		{strings.Repeat(l63+".", 3) + strings.Repeat("b", 61), []string{l63, l63, l63, strings.Repeat("b", 61)}},
		{strings.Repeat(l63+".", 3) + strings.Repeat("b", 62), nil},
	}
	for _, tc := range cases {
		wire, err := EncodeDNSMessage(&DNSMessage{ID: 1, Questions: []DNSQuestion{{Name: tc.name, Type: DNSTypeA}}})
		if tc.labels == nil {
			if !errors.Is(err, ErrBadDNSMessage) {
				t.Errorf("%q: err = %v, want ErrBadDNSMessage", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.name, err)
			continue
		}
		want := []byte{}
		for _, l := range tc.labels {
			want = append(append(want, byte(len(l))), l...)
		}
		want = append(want, 0, 0, DNSTypeA, 0, 1)
		if got := wire[12:]; !bytes.Equal(got, want) {
			t.Errorf("%q: question is %x, want %x", tc.name, got, want)
		}
	}
}

// Names are canonicalized while parsing: case folds, and compression
// pointers decode to the same flat name the encoder writes.
func TestParseDNSNameCompression(t *testing.T) {
	// Header + question "WEB.Spin.Test" + answer whose name is a pointer
	// to offset 12 (the question name).
	msg := []byte{
		0x12, 0x34, 0x84, 0x80, 0, 1, 0, 1, 0, 0, 0, 0,
		3, 'W', 'E', 'B', 4, 'S', 'p', 'i', 'n', 4, 'T', 'e', 's', 't', 0,
		0, DNSTypeA, 0, 1,
		0xC0, 12, // pointer to the question name
		0, DNSTypeA, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 2,
	}
	m, err := ParseDNSMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Questions[0].Name != "web.spin.test" {
		t.Errorf("question name = %q", m.Questions[0].Name)
	}
	if m.Answers[0].Name != "web.spin.test" {
		t.Errorf("answer name = %q", m.Answers[0].Name)
	}
	// Re-encoding writes the name uncompressed; the reply still parses to
	// the same message.
	wire, err := EncodeDNSMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseDNSMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Answers[0].Name != "web.spin.test" || !bytes.Equal(m2.Answers[0].Data, []byte{10, 0, 0, 2}) {
		t.Errorf("re-parse lost the answer: %+v", m2.Answers[0])
	}
}

func TestParseDNSMessageRejects(t *testing.T) {
	header := func(qd, an, ns, ar byte) []byte {
		return []byte{0, 1, 0, 0, 0, qd, 0, an, 0, ns, 0, ar}
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 2, 3}},
		{"count bomb", header(0xFF, 0xFF, 0, 0)},
		{"authority section", header(0, 0, 1, 0)},
		{"additional section", header(0, 0, 0, 1)},
		{"truncated question", append(header(1, 0, 0, 0), 3, 'a')},
		{"bad class", append(header(1, 0, 0, 0), 0, 0, DNSTypeA, 0, 99)},
		{"forward pointer", append(header(1, 0, 0, 0), 0xC0, 14, 0, 0)},
		{"self pointer", append(header(1, 0, 0, 0), 0xC0, 12, 0, 0)},
		{"reserved label type", append(header(1, 0, 0, 0), 0x80, 0, 0)},
		{"opcode", []byte{0, 1, 0x28, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"rdata past end", append(header(0, 1, 0, 0),
			0, 0, DNSTypeA, 0, 1, 0, 0, 0, 60, 0, 200)},
		{"256-octet name", longDNSQuery(62)},
	}
	for _, tc := range cases {
		if _, err := ParseDNSMessage(tc.in); !errors.Is(err, ErrBadDNSMessage) {
			t.Errorf("%s: err = %v, want ErrBadDNSMessage", tc.name, err)
		}
	}
	// One octet shorter is the longest legal name (RFC 1035 §2.3.4 counts
	// the root octet): it parses and survives the round trip unchanged.
	longest := longDNSQuery(61)
	m, err := ParseDNSMessage(longest)
	if err != nil {
		t.Fatalf("255-octet name: %v", err)
	}
	if wire, err := EncodeDNSMessage(m); err != nil || !bytes.Equal(wire, longest) {
		t.Errorf("255-octet name: round trip = %x, %v; want %x", wire, err, longest)
	}
}

// longDNSQuery is a one-question query whose name has labels of 63, 63, 63
// and last octets: 193 + last + 1 octets on the wire, the root's included.
func longDNSQuery(last int) []byte {
	msg := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range []int{63, 63, 63, last} {
		msg = append(append(msg, byte(l)), bytes.Repeat([]byte{'a'}, l)...)
	}
	return append(msg, 0, 0, DNSTypeA, 0, dnsClassIN)
}

func TestZone(t *testing.T) {
	z := NewZone()
	if err := z.AddA("Web.Spin.Test.", 30*sim.Second, Addr(10, 0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	addrs, ttl, ok := z.LookupA("web.spin.test")
	if !ok || len(addrs) != 1 || addrs[0] != Addr(10, 0, 0, 2) || ttl != 30*sim.Second {
		t.Fatalf("LookupA = %v %v %v", addrs, ttl, ok)
	}
	if _, _, ok := z.LookupA("WEB.SPIN.TEST"); !ok {
		t.Error("zone lookups should be case-insensitive")
	}
	if _, _, ok := z.LookupA("other.spin.test"); ok {
		t.Error("absent name resolved")
	}
	if err := z.AddA("", 0, Addr(1, 2, 3, 4)); err == nil {
		t.Error("empty name accepted")
	}
	if got := z.Names(); len(got) != 1 || got[0] != "web.spin.test" {
		t.Errorf("Names = %v", got)
	}
	z.Remove("web.spin.test")
	if _, _, ok := z.LookupA("web.spin.test"); ok {
		t.Error("removed name still resolves")
	}
}

// dnsServerPair builds the standard fixture: host b serves a zone with
// web.spin.test (two A records) and empty.spin.test (a name with no
// records — the NODATA case).
func dnsServerPair(t *testing.T) (a, b *host, cl *sim.Cluster, srv *DNSServer) {
	t.Helper()
	a, b, cl = pair(t, sal.LanceModel)
	zone := NewZone()
	if err := zone.AddA("web.spin.test", 60*sim.Second, Addr(10, 0, 0, 2), Addr(10, 0, 0, 9)); err != nil {
		t.Fatal(err)
	}
	if err := zone.AddA("empty.spin.test", 60*sim.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := NewDNSServer("", b.stack, zone.LookupA)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, cl, srv
}

// rawQuery sends one encoded message from a to b:53 and returns the raw
// reply (nil if none arrived).
func rawQuery(t *testing.T, a *host, cl *sim.Cluster, wire []byte) []byte {
	t.Helper()
	port, err := a.stack.UDP().EphemeralPort()
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	if err := a.stack.UDP().Bind(port, nil, func(pkt *Packet) {
		reply = append([]byte(nil), pkt.Payload...)
	}); err != nil {
		t.Fatal(err)
	}
	defer a.stack.UDP().Unbind(port)
	if err := a.stack.UDP().Send(port, Addr(10, 0, 0, 2), DNSPort, wire); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	return reply
}

func TestDNSServerAnswers(t *testing.T) {
	a, _, cl, srv := dnsServerPair(t)
	ask := func(name string, qtype uint16) *DNSMessage {
		t.Helper()
		wire, err := EncodeDNSMessage(&DNSMessage{ID: 42, RD: true,
			Questions: []DNSQuestion{{Name: name, Type: qtype}}})
		if err != nil {
			t.Fatal(err)
		}
		raw := rawQuery(t, a, cl, wire)
		if raw == nil {
			t.Fatalf("no reply for %s", name)
		}
		m, err := ParseDNSMessage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != 42 || !m.Response || !m.RA {
			t.Fatalf("bad reply header: %+v", m)
		}
		return m
	}

	if m := ask("web.spin.test", DNSTypeA); m.RCode != DNSRCodeOK || len(m.Answers) != 2 ||
		!bytes.Equal(m.Answers[0].Data, []byte{10, 0, 0, 2}) {
		t.Errorf("A answer = %+v", m)
	}
	if m := ask("nope.spin.test", DNSTypeA); m.RCode != DNSRCodeNXDomain || len(m.Answers) != 0 {
		t.Errorf("NXDOMAIN reply = %+v", m)
	}
	// NODATA both ways: a name with no records, and an AAAA question
	// against an A-only name.
	if m := ask("empty.spin.test", DNSTypeA); m.RCode != DNSRCodeOK || len(m.Answers) != 0 {
		t.Errorf("NODATA (no records) reply = %+v", m)
	}
	if m := ask("web.spin.test", DNSTypeAAAA); m.RCode != DNSRCodeOK || len(m.Answers) != 0 {
		t.Errorf("NODATA (AAAA) reply = %+v", m)
	}

	// Garbage is dropped, not answered.
	if raw := rawQuery(t, a, cl, []byte{1, 2, 3}); raw != nil {
		t.Errorf("malformed datagram got a reply: %x", raw)
	}
	var page strings.Builder
	if err := metrics.Write(&page, "dns_server_", srv); err != nil {
		t.Fatal(err)
	}
	if want := "dns_server_answered 1\ndns_server_malformed 1\ndns_server_nodata 2\n" +
		"dns_server_nxdomain 1\ndns_server_queries 4\n"; page.String() != want {
		t.Errorf("server metrics =\n%s\nwant\n%s", page.String(), want)
	}
}

func TestResolverLookupAndCache(t *testing.T) {
	a, _, cl, _ := dnsServerPair(t)
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{Addr(10, 0, 0, 2)}, Seed: 1})

	var addrs []IPAddr
	var rerr error
	r.LookupA("WEB.spin.test", func(g []IPAddr, e error) { addrs, rerr = slices.Clone(g), e })
	cl.Run(0)
	if rerr != nil || len(addrs) != 2 || addrs[0] != Addr(10, 0, 0, 2) || addrs[1] != Addr(10, 0, 0, 9) {
		t.Fatalf("LookupA = %v, %v", addrs, rerr)
	}

	// Second lookup answers synchronously from the cache — no new query.
	done := false
	r.LookupA("web.spin.test", func(g []IPAddr, e error) {
		done = true
		if e != nil || len(g) != 2 {
			t.Errorf("cached lookup = %v, %v", g, e)
		}
	})
	if !done {
		t.Fatal("cache hit was not synchronous")
	}
	st := r.stats
	if st.Lookups != 2 || st.Sent != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v", st)
	}

	// After the TTL passes the entry expires and the resolver queries
	// again.
	a.eng.After(61*sim.Second, func() {
		r.LookupA("web.spin.test", func([]IPAddr, error) {})
	})
	cl.Run(0)
	if st := r.stats; st.Sent != 2 {
		t.Errorf("post-TTL Sent = %d, want 2", st.Sent)
	}
}

// Negative answers (NXDOMAIN and NODATA) are cached for negativeTTL:
// repeat lookups answer synchronously without traffic, and the entry
// expires on the virtual clock.
func TestResolverNegativeCache(t *testing.T) {
	for _, tc := range []struct {
		name  string
		qname string
	}{
		{"nxdomain", "nope.spin.test"},
		{"nodata", "empty.spin.test"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _, cl, _ := dnsServerPair(t)
			r := NewResolver(a.stack, ResolverConfig{
				Servers: []IPAddr{Addr(10, 0, 0, 2)},
				Seed:    1,
			})
			var first error
			r.LookupA(tc.qname, func(_ []IPAddr, e error) { first = e })
			cl.Run(0)
			if !errors.Is(first, ErrNameNotFound) {
				t.Fatalf("first lookup err = %v, want ErrNameNotFound", first)
			}
			var second error
			done := false
			r.LookupA(tc.qname, func(_ []IPAddr, e error) { second, done = e, true })
			if !done {
				t.Fatal("negative cache hit was not synchronous")
			}
			if !errors.Is(second, ErrNameNotFound) {
				t.Fatalf("second lookup err = %v", second)
			}
			if st := r.stats; st.Sent != 1 || st.NegativeHits != 1 || st.Failures != 1 {
				t.Errorf("stats = %+v", st)
			}
			// Past the negative TTL the resolver asks again.
			a.eng.After(6*sim.Second, func() {
				r.LookupA(tc.qname, func([]IPAddr, error) {})
			})
			cl.Run(0)
			if st := r.stats; st.Sent != 2 {
				t.Errorf("post-TTL Sent = %d, want 2", st.Sent)
			}
		})
	}
}

// scriptedAuthority is a DNS server bound to UDP port 53 of a stack that
// follows a script rather than a zone: it records every query, drops the
// first drop of them, holds the rest while hold is set, for the test to
// answer when it likes, and otherwise answers at once with an A record for
// each of answers.
type scriptedAuthority struct {
	t       *testing.T
	stack   *Stack
	drop    int
	hold    bool
	answers []IPAddr
	queries [][]byte    // every query's bytes, in arrival order
	held    []heldQuery // the queries held, in arrival order
}

// heldQuery is a query the authority held: where it came from and what it
// asked.
type heldQuery struct {
	src  IPAddr
	port uint16
	msg  *DNSMessage
}

func newScriptedAuthority(t *testing.T, stack *Stack) *scriptedAuthority {
	t.Helper()
	a := &scriptedAuthority{t: t, stack: stack}
	if err := stack.UDP().Bind(DNSPort, nil, a.receive); err != nil {
		t.Fatal(err)
	}
	return a
}

func (a *scriptedAuthority) receive(pkt *Packet) {
	a.queries = append(a.queries, slices.Clone(pkt.Payload))
	m, err := ParseDNSMessage(pkt.Payload)
	if err != nil {
		a.t.Error(err) // not Fatal: behind the sockets this runs on the Driver's loop
		return
	}
	q := heldQuery{pkt.Src, pkt.SrcPort, m}
	switch {
	case len(a.queries) <= a.drop:
	case a.hold:
		a.held = append(a.held, q)
	default:
		a.reply(q, answerA(a.t, m, a.answers...))
	}
}

// reply sends wire to the port q came from.
func (a *scriptedAuthority) reply(q heldQuery, wire []byte) {
	if err := a.stack.UDP().Send(DNSPort, q.src, q.port, wire); err != nil {
		a.t.Error(err)
	}
}

// The timeout path: attempts, backoff bounds, and the fact that timeouts
// are NOT negatively cached (a later lookup tries the network again).
func TestResolverTimeoutPath(t *testing.T) {
	const timeout = resolverTimeout
	cases := []struct {
		name        string
		failures    int // queries the authority drops before answering
		wantErr     error
		wantSent    int64
		wantRetries int64
		// virtual-time bounds for the whole lookup: backoff doubles per
		// attempt (1, 2 and 4 timeouts) with up to base/8 seeded jitter
		// each, and the answer, if one comes, a round trip under 1 ms.
		minElapsed, maxElapsed sim.Duration
	}{
		{"answers first try", 0, nil, 1, 0, 0, sim.Millisecond},
		{"one retry", 1, nil, 2, 1, timeout, timeout + timeout/8 + sim.Millisecond},
		{"second retry", 2, nil, 3, 2, 3 * timeout, 3*timeout + 3*timeout/8 + sim.Millisecond},
		{"all attempts dropped", 3, ErrDNSTimeout, 3, 2, 7 * timeout, 7*timeout + 7*timeout/8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, cl := pair(t, sal.LanceModel)
			auth := newScriptedAuthority(t, b.stack)
			auth.drop, auth.answers = tc.failures, []IPAddr{Addr(10, 0, 0, 7)}
			r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}, Seed: 42})
			start := a.eng.Now()
			var got []IPAddr
			var gerr error
			var end sim.Time
			fired := false
			r.LookupA("web.spin.test", func(g []IPAddr, e error) {
				got, gerr, end, fired = slices.Clone(g), e, a.eng.Now(), true
			})
			cl.Run(0)
			if !fired {
				t.Fatal("callback never fired")
			}
			elapsed := end.Sub(start)
			if tc.wantErr != nil {
				if !errors.Is(gerr, tc.wantErr) {
					t.Fatalf("err = %v, want %v", gerr, tc.wantErr)
				}
			} else if gerr != nil || len(got) != 1 || got[0] != Addr(10, 0, 0, 7) {
				t.Fatalf("lookup = %v, %v", got, gerr)
			}
			if elapsed < tc.minElapsed || elapsed > tc.maxElapsed {
				t.Errorf("elapsed %v outside [%v, %v]", elapsed, tc.minElapsed, tc.maxElapsed)
			}
			st := r.stats
			if st.Sent != tc.wantSent || st.Retries != tc.wantRetries {
				t.Errorf("stats = %+v, want Sent=%d Retries=%d", st, tc.wantSent, tc.wantRetries)
			}
			// Timeouts are not cached: the next lookup hits the network
			// again (and succeeds, now that the authority stopped
			// dropping queries).
			if tc.wantErr != nil {
				auth.drop, auth.queries = 0, nil
				var again error
				r.LookupA("web.spin.test", func(_ []IPAddr, e error) { again = e })
				cl.Run(0)
				if again != nil || len(auth.queries) == 0 {
					t.Errorf("post-timeout lookup: err=%v queries=%d (timeout must not be cached)", again, len(auth.queries))
				}
			}
		})
	}
}

// A datagram that is not the server's answer — the wrong ID, or the
// query's ID from the wrong port or address — reaching a lookup's
// predictable reply port ahead of the answer is ignored (RFC 5452 §9.1):
// the answer that follows is taken in one round trip, with no retry. Each
// stray is a well-formed answer for another address, so one taken for the
// reply would show.
func TestResolverIgnoresStrayDatagram(t *testing.T) {
	server, want, forged := Addr(10, 0, 0, 2), Addr(10, 0, 0, 7), Addr(10, 0, 0, 66)
	for _, tc := range []struct {
		name    string
		src     IPAddr
		srcPort uint16
		wrongID bool
	}{
		{"wrong ID from the server's port 53", server, DNSPort, true},
		{"the query's ID from another port", server, 5353, false},
		{"the query's ID from another address", forged, DNSPort, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, cl := pair(t, sal.LanceModel)
			answer := func(q *DNSMessage, id uint16, addr IPAddr) []byte {
				wire, err := EncodeDNSMessage(&DNSMessage{ID: id, Response: true, RD: true, RA: true,
					Questions: q.Questions, Answers: []DNSRR{{Name: q.Questions[0].Name, Type: DNSTypeA,
						TTL: 60, Data: []byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}}}})
				if err != nil {
					t.Fatal(err)
				}
				return wire
			}
			// The server sends the stray just ahead of its answer, so the
			// stray arrives first.
			if err := b.stack.UDP().Bind(DNSPort, nil, func(pkt *Packet) {
				q, err := ParseDNSMessage(pkt.Payload)
				if err != nil {
					t.Fatal(err)
				}
				id := q.ID
				if tc.wrongID {
					id++
				}
				stray := AllocPacket()
				stray.Src, stray.Dst, stray.Proto = tc.src, pkt.Src, ProtoUDP
				stray.SrcPort, stray.DstPort = tc.srcPort, pkt.SrcPort
				stray.SetPayload(answer(q, id, forged))
				if err := b.stack.SendIP(stray); err != nil {
					t.Fatal(err)
				}
				if err := b.stack.UDP().Send(DNSPort, pkt.Src, pkt.SrcPort, answer(q, q.ID, want)); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{server}, Seed: 1})
			var got []IPAddr
			var gerr error
			r.LookupA("web.spin.test", func(g []IPAddr, e error) { got, gerr = slices.Clone(g), e })
			cl.Run(0)
			if gerr != nil || len(got) != 1 || got[0] != want {
				t.Fatalf("LookupA = %v, %v; want [%v]", got, gerr, want)
			}
			if st := r.stats; st.Sent != 1 || st.Retries != 0 {
				t.Errorf("Sent = %d, Retries = %d; want 1 and 0", st.Sent, st.Retries)
			}
			if now := a.eng.Now(); now >= sim.Time(sim.Millisecond) {
				t.Errorf("lookup finished at %v, want one round trip", now)
			}
		})
	}
}

// Lookups on one resolver share its reply port. The server holds the
// first query until the second arrives and answers the second first: each
// callback still gets its own name's address, from one query each, with no
// retry and no timer left to fire. The seed makes the ID stream draw the
// first query's ID again for the second, so the second lookup must draw
// past it: two queries outstanding to one server never carry one ID.
func TestResolverSharesOneReplyPort(t *testing.T) {
	// A lookup draws its query ID, then its timeout jitter; the second
	// lookup's ID is the stream's third draw.
	seed := uint64(0)
	for ; ; seed++ {
		rnd := sim.NewRand(seed ^ 0xd15ba11ad)
		first := uint16(rnd.Uint64())
		rnd.Uint64()
		if uint16(rnd.Uint64()) == first {
			break
		}
	}
	a, b, cl := pair(t, sal.LanceModel)
	server := Addr(10, 0, 0, 2)
	want := map[string]IPAddr{"one.spin.test": Addr(10, 0, 0, 11), "two.spin.test": Addr(10, 0, 0, 12)}
	type query struct {
		src  IPAddr
		port uint16
		msg  *DNSMessage
	}
	var held []query
	ids := map[uint16]bool{}
	ports := map[uint16]bool{}
	if err := b.stack.UDP().Bind(DNSPort, nil, func(pkt *Packet) {
		m, err := ParseDNSMessage(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, query{pkt.Src, pkt.SrcPort, m})
		ids[m.ID], ports[pkt.SrcPort] = true, true
		if len(held) < 2 {
			return
		}
		for i := len(held) - 1; i >= 0; i-- {
			m := held[i].msg
			wire := answerA(t, m, want[m.Questions[0].Name])
			if err := b.stack.UDP().Send(DNSPort, held[i].src, held[i].port, wire); err != nil {
				t.Fatal(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{server}, Seed: seed})
	got := map[string]IPAddr{}
	for name := range want {
		r.LookupA(name, func(g []IPAddr, e error) {
			if e != nil || len(g) != 1 {
				t.Errorf("LookupA(%s) = %v, %v", name, g, e)
				return
			}
			got[name] = g[0]
		})
	}
	cl.Run(0)
	for name, addr := range want {
		if got[name] != addr {
			t.Errorf("LookupA(%s) = %v, want %v", name, got[name], addr)
		}
	}
	if st := r.stats; st.Sent != 2 || st.Retries != 0 {
		t.Errorf("Sent = %d, Retries = %d; want 2 and 0", st.Sent, st.Retries)
	}
	if len(held) != 2 || len(ids) != 2 || len(ports) != 1 {
		t.Errorf("server saw %d queries with %d IDs from %d ports, want 2, 2 and 1", len(held), len(ids), len(ports))
	}
	if now := a.eng.Now(); now >= sim.Time(sim.Millisecond) {
		t.Errorf("lookups finished at %v, want one round trip", now)
	}
	if len(r.udp.out) != 0 {
		t.Errorf("%d queries still outstanding", len(r.udp.out))
	}
}

// answerA encodes the answer to query q: an A record for each of addrs.
func answerA(t *testing.T, q *DNSMessage, addrs ...IPAddr) []byte {
	t.Helper()
	reply := &DNSMessage{ID: q.ID, Response: true, RD: true, RA: true, Questions: q.Questions}
	for _, a := range addrs {
		reply.Answers = append(reply.Answers, DNSRR{Name: q.Questions[0].Name, Type: DNSTypeA,
			TTL: 60, Data: []byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}})
	}
	wire, err := EncodeDNSMessage(reply)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// An attempt that times out is withdrawn from the
// shared reply port: the server leaves the first query unanswered and
// answers it late, just ahead of the retry's answer. The late answer is
// dropped, the retry's is taken, and nothing is left outstanding.
func TestResolverTimeoutWithdrawsQuery(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	server, late, want := Addr(10, 0, 0, 2), Addr(10, 0, 0, 66), Addr(10, 0, 0, 7)
	var first *DNSMessage
	if err := b.stack.UDP().Bind(DNSPort, nil, func(pkt *Packet) {
		m, err := ParseDNSMessage(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = m
			return
		}
		for _, wire := range [][]byte{answerA(t, first, late), answerA(t, m, want)} {
			if err := b.stack.UDP().Send(DNSPort, pkt.Src, pkt.SrcPort, wire); err != nil {
				t.Fatal(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{server}, Seed: 1})
	var got []IPAddr
	var gerr error
	r.LookupA("web.spin.test", func(g []IPAddr, e error) { got, gerr = slices.Clone(g), e })
	cl.Run(0)
	if gerr != nil || len(got) != 1 || got[0] != want {
		t.Fatalf("LookupA = %v, %v; want [%v]", got, gerr, want)
	}
	if st := r.stats; st.Sent != 2 || st.Retries != 1 {
		t.Errorf("Sent = %d, Retries = %d; want 2 and 1", st.Sent, st.Retries)
	}
	if len(r.udp.out) != 0 {
		t.Errorf("%d queries still outstanding", len(r.udp.out))
	}
}

// A lookup has one timeout, re-armed by each attempt. A retry begun by a
// reply (SERVFAIL) must withdraw the timeout of the attempt it replaces:
// left armed, it fires in the middle of the next attempt, cancels that
// attempt's query and burns a second one, and the lookup gives up after a
// third of the time its backoff allows. The authority answers the first
// query with SERVFAIL and never answers another.
func TestResolverRetryOnReplyRearmsItsTimeout(t *testing.T) {
	const timeout = resolverTimeout
	a, b, cl := pair(t, sal.LanceModel)
	auth := newScriptedAuthority(t, b.stack)
	auth.hold = true
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}, Seed: 42})
	var gerr error
	var end sim.Time
	r.LookupA("web.spin.test", func(_ []IPAddr, e error) { gerr, end = e, a.eng.Now() })
	if !cl.RunUntil(func() bool { return len(auth.held) == 1 }, 0) {
		t.Fatal("the first query never arrived")
	}
	q := auth.held[0]
	wire, err := EncodeDNSMessage(&DNSMessage{ID: q.msg.ID, Response: true, RCode: 2, Questions: q.msg.Questions})
	if err != nil {
		t.Fatal(err)
	}
	auth.reply(q, wire)
	cl.Run(0)
	if !errors.Is(gerr, ErrDNSTimeout) || len(auth.queries) != 3 {
		t.Fatalf("err = %v after %d queries, want ErrDNSTimeout after 3", gerr, len(auth.queries))
	}
	// A round trip to the SERVFAIL, then the second and third attempts'
	// full timeouts (2 and 4 timeouts, plus jitter).
	if end < sim.Time(6*timeout) {
		t.Errorf("gave up after %v, want at least %v", end, 6*timeout)
	}
}

// Fixed seed, fixed query byte stream: IDs and retry jitter replay.
func TestResolverDeterministic(t *testing.T) {
	run := func(seed uint64) [][]byte {
		a, b, cl := pair(t, sal.LanceModel)
		auth := newScriptedAuthority(t, b.stack)
		auth.drop, auth.answers = 2, []IPAddr{Addr(10, 0, 0, 7)}
		r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}, Seed: seed})
		r.LookupA("web.spin.test", func([]IPAddr, error) {})
		cl.Run(0)
		return auth.queries
	}
	a1, a2, b := run(7), run(7), run(8)
	if len(a1) != 3 {
		t.Fatalf("sent %d queries, want 3", len(a1))
	}
	for i := range a1 {
		if !bytes.Equal(a1[i], a2[i]) {
			t.Errorf("query %d differs under the same seed", i)
		}
	}
	same := true
	for i := range a1 {
		if i >= len(b) || !bytes.Equal(a1[i], b[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical query streams")
	}
}

// Close releases port 53: queries after Close go unanswered and the port
// can be rebound; constructor error paths (no authority, port taken) fail
// cleanly.
func TestDNSServerCloseAndRebind(t *testing.T) {
	a, b, cl, srv := dnsServerPair(t)
	if _, err := NewDNSServer("", b.stack, nil); err == nil {
		t.Error("server without a zone lookup accepted")
	}
	if _, err := NewDNSServer("", b.stack, NewZone().LookupA); err == nil {
		t.Error("second bind of port 53 accepted")
	}
	srv.Close()
	wire, err := EncodeDNSMessage(&DNSMessage{ID: 9, RD: true,
		Questions: []DNSQuestion{{Name: "web.spin.test", Type: DNSTypeA}}})
	if err != nil {
		t.Fatal(err)
	}
	if raw := rawQuery(t, a, cl, wire); raw != nil {
		t.Fatal("closed server answered")
	}
	if _, err := NewDNSServer("", b.stack, NewZone().LookupA); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

// FlushCache drops the positive cache: the next lookup goes back to the
// network (benchmarks measure uncached resolves through exactly this).
func TestResolverFlushCache(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	newScriptedAuthority(t, b.stack).answers = []IPAddr{Addr(10, 0, 0, 2)}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}})
	lookup := func() {
		t.Helper()
		done := false
		r.LookupA("web.spin.test", func(_ []IPAddr, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		cl.Run(0)
		if !done {
			t.Fatal("the lookup never completed")
		}
	}
	lookup()
	lookup() // served from cache
	if st := r.stats; st.Sent != 1 || st.CacheHits != 1 {
		t.Fatalf("stats before flush = %+v", st)
	}
	r.FlushCache()
	lookup()
	if st := r.stats; st.Sent != 2 {
		t.Fatalf("flush did not force a network lookup: %+v", st)
	}
}

// Flush(name) drops one name, leaving the rest of the cache warm — the
// targeted invalidation a DNS withdrawal (vnet.RemoveName) uses so the
// stale window is the negative TTL, not the withdrawn record's remaining
// positive TTL.
func TestResolverFlushName(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	newScriptedAuthority(t, b.stack).answers = []IPAddr{Addr(10, 0, 0, 2)}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}})
	lookup := func(name string) {
		t.Helper()
		done := false
		r.LookupA(name, func(_ []IPAddr, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		cl.Run(0)
		if !done {
			t.Fatal("the lookup never completed")
		}
	}
	lookup("web.spin.test")
	lookup("api.spin.test")
	if !r.Flush("WEB.spin.test.") { // canonicalized: case- and dot-insensitive
		t.Error("Flush of a cached name reported nothing flushed")
	}
	if r.Flush("gone.spin.test") {
		t.Error("Flush of an uncached name reported a flush")
	}
	lookup("api.spin.test") // still cached
	lookup("web.spin.test") // must go back to the network
	st := r.stats
	if st.Sent != 3 {
		t.Errorf("Sent = %d, want 3 (web twice, api once)", st.Sent)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1 (api only)", st.CacheHits)
	}
	// FlushCache empties both caches: every name re-queries the authority.
	r.FlushCache()
	lookup("api.spin.test")
	lookup("web.spin.test")
	if st = r.stats; st.Sent != 5 {
		t.Errorf("Sent = %d after FlushCache, want 5", st.Sent)
	}
}

// A callback is lent the cached answer, and may look names up again: from
// the cache, and from the network after flushing the cache under its own
// answer, with an authority whose answer has changed. Its own addresses
// stay as they were throughout, whether it was itself answered from the
// network or from the cache. A cache hit's callback runs outside any engine
// step, so there it steps the topology itself, and the changed answer
// lands while its own is still lent.
func TestResolverReentrantCallbackKeepsItsAnswer(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	before, after := Addr(10, 0, 0, 2), Addr(10, 0, 0, 3)
	auth := newScriptedAuthority(t, b.stack)
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}})
	const name = "web.spin.test"
	expect := func(what string, want IPAddr) func([]IPAddr, error) {
		return func(g []IPAddr, e error) {
			if e != nil || len(g) != 1 || g[0] != want {
				t.Errorf("%s: LookupA = %v, %v; want [%v]", what, g, e, want)
			}
		}
	}
	for _, cached := range []bool{false, true} {
		r.FlushCache()
		auth.answers = []IPAddr{before}
		if cached {
			r.LookupA(name, expect("warming", before))
			cl.Run(0)
		}
		ran := false
		r.LookupA(name, func(g []IPAddr, e error) {
			ran = true
			r.LookupA(name, expect("a hit inside the callback", before))
			r.FlushCache()
			auth.answers = []IPAddr{after}
			r.LookupA(name, expect("a miss inside the callback", after))
			if cached {
				cl.Run(0)
			}
			if e != nil || len(g) != 1 || g[0] != before {
				t.Errorf("cached=%v: the callback's own answer reads %v, %v; want [%v]", cached, g, e, before)
			}
		})
		cl.Run(0)
		if !ran {
			t.Fatal("the lookup never completed")
		}
	}
	if len(r.free) != 2 {
		t.Errorf("%d spent lookups kept, want 2: the most ever in flight together", len(r.free))
	}
}

// A finished lookup's storage serves the next lookup, and nothing meant for
// the finished one reaches it: not a late reply to either of the finished
// lookup's attempts, and not its timeout, which was disarmed but stays
// queued until the next lookup's Arm withdraws it, so the next lookup's
// timeout is queued once. The authority holds every query for the test to
// answer.
func TestResolverRecycledLookupIsFenced(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	auth := newScriptedAuthority(t, b.stack)
	auth.hold = true
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{b.stack.IP}, Seed: 9})
	first, want := Addr(10, 0, 0, 7), Addr(10, 0, 0, 8)
	var got []IPAddr
	calls := 0
	r.LookupA("a.spin.test", func(g []IPAddr, e error) {
		calls++
		if e != nil || len(g) != 1 || g[0] != first {
			t.Errorf("first lookup = %v, %v; want [%v]", g, e, first)
		}
	})
	// The first attempt goes unanswered and times out; the second is
	// answered, its timeout disarmed but still queued.
	cl.Run(sim.Time(resolverTimeout + resolverTimeout/8 + sim.Millisecond))
	if len(auth.held) != 2 {
		t.Fatalf("%d queries after the first timeout, want 2", len(auth.held))
	}
	q1, q2 := auth.held[0], auth.held[1]
	auth.reply(q2, answerA(t, q2.msg, first))
	cl.Run(0)
	if calls != 1 || len(r.free) != 1 {
		t.Fatalf("first lookup: %d callbacks, %d spent lookups kept; want 1, 1", calls, len(r.free))
	}
	begun := a.eng.Now()
	r.LookupA("b.spin.test", func(g []IPAddr, e error) {
		calls++
		if e != nil {
			t.Errorf("second lookup: %v", e)
		}
		got = slices.Clone(g)
	})
	if len(r.free) != 0 {
		t.Fatal("the second lookup did not reuse the first one's storage")
	}
	if n := a.eng.Pending(); n != 1 {
		t.Fatalf("%d events queued, want 1: the second lookup's timeout, queued once", n)
	}
	// Everything still addressed to the first lookup arrives now.
	auth.reply(q1, answerA(t, q1.msg, first))
	auth.reply(q2, answerA(t, q2.msg, first))
	cl.Run(begun.Add(sim.Millisecond))
	if calls != 1 || len(auth.held) != 3 || r.stats.Retries != 1 {
		t.Fatalf("after the first lookup's late replies: %d callbacks, %d queries, %d retries; want 1, 3, 1",
			calls, len(auth.held), r.stats.Retries)
	}
	// The second lookup's own first timeout fires once: one retry.
	cl.Run(begun.Add(resolverTimeout + resolverTimeout/8 + sim.Millisecond))
	if len(auth.held) != 4 || r.stats.Retries != 2 {
		t.Fatalf("after the second lookup's first timeout: %d queries, %d retries; want 4, 2",
			len(auth.held), r.stats.Retries)
	}
	q4 := auth.held[3]
	auth.reply(q4, answerA(t, q4.msg, want))
	cl.Run(0)
	if calls != 2 || len(got) != 1 || got[0] != want {
		t.Errorf("second lookup: %d callbacks, answer %v; want 2, [%v]", calls, got, want)
	}
}
