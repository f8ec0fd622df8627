package netstack

import (
	"bytes"
	"errors"
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
	}
	for _, tc := range cases {
		if _, err := ParseDNSMessage(tc.in); !errors.Is(err, ErrBadDNSMessage) {
			t.Errorf("%s: err = %v, want ErrBadDNSMessage", tc.name, err)
		}
	}
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
	srv, err := NewDNSServer(b.stack, nil, zone.LookupA)
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
	r.LookupA("WEB.spin.test", func(g []IPAddr, e error) { addrs, rerr = g, e })
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

// Negative answers (NXDOMAIN and NODATA) are cached for NegativeTTL:
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
				Servers:     []IPAddr{Addr(10, 0, 0, 2)},
				NegativeTTL: 5 * sim.Second,
				Seed:        1,
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

// fakeTransport drops the first failures queries and answers the rest
// (synchronously) from answers; it records every query it sees.
type fakeTransport struct {
	failures int
	answers  []IPAddr
	queries  [][]byte
}

func (f *fakeTransport) Query(server IPAddr, msg []byte, done func([]byte, error)) (func(), error) {
	f.queries = append(f.queries, append([]byte(nil), msg...))
	if len(f.queries) <= f.failures {
		return func() {}, nil // dropped: no reply will come
	}
	q, err := ParseDNSMessage(msg)
	if err != nil {
		return nil, err
	}
	reply := &DNSMessage{ID: q.ID, Response: true, RD: q.RD, RA: true, Questions: q.Questions}
	for _, a := range f.answers {
		reply.Answers = append(reply.Answers, DNSRR{Name: q.Questions[0].Name, Type: DNSTypeA,
			TTL: 60, Data: []byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}})
	}
	wire, err := EncodeDNSMessage(reply)
	if err != nil {
		return nil, err
	}
	done(wire, nil)
	return func() {}, nil
}

// The timeout path: attempts, backoff bounds, and the fact that timeouts
// are NOT negatively cached (a later lookup tries the network again).
func TestResolverTimeoutPath(t *testing.T) {
	const timeout = 100 * sim.Millisecond
	cases := []struct {
		name        string
		failures    int // queries the transport eats before answering
		wantErr     error
		wantSent    int64
		wantRetries int64
		// virtual-time bounds for the whole lookup: backoff doubles per
		// attempt (100, 200, 400ms) with up to base/8 seeded jitter each.
		minElapsed, maxElapsed sim.Duration
	}{
		{"answers first try", 0, nil, 1, 0, 0, 0},
		{"one retry", 1, nil, 2, 1, timeout, timeout + timeout/8},
		{"second retry", 2, nil, 3, 2, 300 * sim.Millisecond, 337500 * sim.Microsecond},
		{"all attempts dropped", 3, ErrDNSTimeout, 3, 2, 700 * sim.Millisecond, 787500 * sim.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newNetHost(t, "r", Addr(10, 0, 0, 1), sal.LanceModel)
			ft := &fakeTransport{failures: tc.failures, answers: []IPAddr{Addr(10, 0, 0, 7)}}
			r := NewResolver(h.stack, ResolverConfig{
				Servers:   []IPAddr{Addr(10, 0, 0, 2)},
				Transport: ft,
				Timeout:   timeout,
				Attempts:  3,
				Seed:      42,
			})
			start := h.eng.Now()
			var got []IPAddr
			var gerr error
			fired := false
			r.LookupA("web.spin.test", func(a []IPAddr, e error) { got, gerr, fired = a, e, true })
			h.eng.Run(0)
			if !fired {
				t.Fatal("callback never fired")
			}
			elapsed := h.eng.Now().Sub(start)
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
			// again (and succeeds, now that the transport stopped eating
			// queries).
			if tc.wantErr != nil {
				ft.failures = 0
				ft.queries = nil
				var again error
				r.LookupA("web.spin.test", func(_ []IPAddr, e error) { again = e })
				h.eng.Run(0)
				if again != nil || len(ft.queries) == 0 {
					t.Errorf("post-timeout lookup: err=%v queries=%d (timeout must not be cached)", again, len(ft.queries))
				}
			}
		})
	}
}

// servfailOnce answers the first query with SERVFAIL a little later and
// never answers another.
type servfailOnce struct {
	eng     *sim.Engine
	queries int
}

func (f *servfailOnce) Query(server IPAddr, msg []byte, done func([]byte, error)) (func(), error) {
	if f.queries++; f.queries > 1 {
		return func() {}, nil
	}
	q, err := ParseDNSMessage(msg)
	if err != nil {
		return nil, err
	}
	wire, err := EncodeDNSMessage(&DNSMessage{ID: q.ID, Response: true, RCode: 2, Questions: q.Questions})
	if err != nil {
		return nil, err
	}
	f.eng.After(10*sim.Millisecond, func() { done(wire, nil) })
	return func() {}, nil
}

// A lookup has one timeout, re-armed by each attempt. A retry begun by a
// reply (SERVFAIL) must withdraw the timeout of the attempt it replaces:
// left armed, it fires in the middle of the next attempt, cancels that
// attempt's query and burns a second one, and the lookup gives up after a
// third of the time its backoff allows.
func TestResolverRetryOnReplyRearmsItsTimeout(t *testing.T) {
	const timeout = 100 * sim.Millisecond
	h := newNetHost(t, "r", Addr(10, 0, 0, 1), sal.LanceModel)
	ft := &servfailOnce{eng: h.eng}
	r := NewResolver(h.stack, ResolverConfig{
		Servers: []IPAddr{Addr(10, 0, 0, 2)}, Transport: ft,
		Timeout: timeout, Attempts: 3, Seed: 42,
	})
	var gerr error
	r.LookupA("web.spin.test", func(_ []IPAddr, e error) { gerr = e })
	h.eng.Run(0)
	if !errors.Is(gerr, ErrDNSTimeout) || ft.queries != 3 {
		t.Fatalf("err = %v after %d queries, want ErrDNSTimeout after 3", gerr, ft.queries)
	}
	// 10ms to the SERVFAIL, then the second and third attempts' full
	// timeouts (200ms and 400ms, plus jitter).
	if elapsed := h.eng.Now(); elapsed < sim.Time(10*sim.Millisecond+6*timeout) {
		t.Errorf("gave up after %v, want at least %v", elapsed, 10*sim.Millisecond+6*timeout)
	}
}

// Fixed seed, fixed query byte stream: IDs and retry jitter replay.
func TestResolverDeterministic(t *testing.T) {
	run := func(seed uint64) [][]byte {
		h := newNetHost(t, "r", Addr(10, 0, 0, 1), sal.LanceModel)
		ft := &fakeTransport{failures: 2, answers: []IPAddr{Addr(10, 0, 0, 7)}}
		r := NewResolver(h.stack, ResolverConfig{
			Servers: []IPAddr{Addr(10, 0, 0, 2)}, Transport: ft,
			Timeout: 50 * sim.Millisecond, Attempts: 3, Seed: seed,
		})
		r.LookupA("web.spin.test", func([]IPAddr, error) {})
		h.eng.Run(0)
		return ft.queries
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
	if _, err := NewDNSServer(b.stack, nil, nil); err == nil {
		t.Error("server without a zone lookup accepted")
	}
	if _, err := NewDNSServer(b.stack, nil, NewZone().LookupA); err == nil {
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
	if _, err := NewDNSServer(b.stack, nil, NewZone().LookupA); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

// FlushCache drops the positive cache: the next lookup goes back to the
// network (benchmarks measure uncached resolves through exactly this).
func TestResolverFlushCache(t *testing.T) {
	a, _, _ := pair(t, sal.LanceModel)
	ft := &fakeTransport{answers: []IPAddr{Addr(10, 0, 0, 2)}}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{Addr(10, 0, 0, 9)}, Transport: ft})
	lookup := func() {
		t.Helper()
		done := false
		r.LookupA("web.spin.test", func(_ []IPAddr, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		if !done {
			t.Fatal("synchronous transport did not complete the lookup")
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
	a, _, _ := pair(t, sal.LanceModel)
	ft := &fakeTransport{answers: []IPAddr{Addr(10, 0, 0, 2)}}
	r := NewResolver(a.stack, ResolverConfig{Servers: []IPAddr{Addr(10, 0, 0, 9)}, Transport: ft})
	lookup := func(name string) {
		t.Helper()
		done := false
		r.LookupA(name, func(_ []IPAddr, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		if !done {
			t.Fatal("synchronous transport did not complete the lookup")
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
