package netstack

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spin/internal/metrics"
	"spin/internal/sim"
)

// In-kernel DNS: the network half of SPIN's naming story. The domain
// nameserver (internal/domain) resolves interfaces inside one kernel;
// this module resolves machine names across the virtual internet, so
// extensions (and plain Go programs over the socket adapters) can
// resolve-then-dial instead of hard-coding addresses.
//
// The wire format is a real DNS subset — header, QNAME label encoding with
// compression-pointer decoding, A/AAAA questions and answers, NXDOMAIN —
// and like wire.go it is an untrusted-input boundary: ParseDNSMessage
// validates every field, never panics, and is fuzzed (FuzzParseDNSMessage).
// The transport is pluggable (DNSTransport); the default speaks UDP over
// the simulated stack. Lookups are seeded-deterministic: query IDs and
// retry jitter come from a sim.Rand, timeouts are virtual-time events, and
// both caches expire against the virtual clock, so a topology run with DNS
// replays byte-identically.

// DNSPort is the well-known DNS server port.
const DNSPort = 53

// DNS record/query types (the supported subset).
const (
	DNSTypeA    = 1
	DNSTypeAAAA = 28
)

// dnsClassIN is the only class the subset speaks.
const dnsClassIN = 1

// DNS response codes (RCode).
const (
	DNSRCodeOK       = 0
	DNSRCodeNXDomain = 3
)

// Header flag bits: query/response, recursion desired and available.
const (
	dnsFlagQR = 0x8000
	dnsFlagRD = 0x0100
	dnsFlagRA = 0x0080
)

// dnsHeaderLen is the fixed DNS header size.
const dnsHeaderLen = 12

// maxDNSName is the maximum encoded name length, root octet included (RFC
// 1035 §2.3.4).
const maxDNSName = 255

// maxDNSPointerJumps bounds compression-pointer chases while decoding one
// name; every jump must also target an earlier offset, so decoding always
// terminates.
const maxDNSPointerJumps = 32

// Errors from the DNS codec and resolver.
var (
	// ErrBadDNSMessage reports a message the codec rejected; the wrapped
	// detail says which field.
	ErrBadDNSMessage = errors.New("netstack: malformed DNS message")
	// ErrNameNotFound is the negative result: NXDOMAIN, or a name with no
	// records of the queried type (NODATA).
	ErrNameNotFound = errors.New("netstack: DNS name not found")
	// ErrDNSTimeout reports that every configured attempt went
	// unanswered.
	ErrDNSTimeout = errors.New("netstack: DNS query timed out")
)

// DNSQuestion is one query: a canonical (lower-case, no trailing dot) name
// and a record type.
type DNSQuestion struct {
	Name string
	Type uint16
}

// DNSRR is one resource record. Data is the raw RDATA (4 bytes for A, 16
// for AAAA); TTL is in seconds, as on the wire.
type DNSRR struct {
	Name string
	Type uint16
	TTL  uint32
	Data []byte
}

// DNSMessage is the decoded subset of a DNS message: header identity and
// flags, questions, and answers. Authority/additional sections are not
// modeled (their counts must be zero).
type DNSMessage struct {
	ID       uint16
	Response bool
	// RD/RA are the recursion-desired/-available flags, carried so
	// replies echo what real resolvers expect.
	RD, RA bool
	RCode  uint8
	// Questions and Answers; the subset bounds both (see ParseDNSMessage).
	Questions []DNSQuestion
	Answers   []DNSRR
}

// canonicalDNSName lower-cases name, strips one trailing dot, and
// validates the label structure (1–63 bytes per label, no '.' inside a
// label, 255 bytes encoded).
func canonicalDNSName(name string) (string, error) {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if name == "" {
		return "", nil // the root
	}
	if len(name)+2 > maxDNSName {
		return "", fmt.Errorf("%w: name %q too long", ErrBadDNSMessage, name)
	}
	for rest, more := name, true; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if len(label) == 0 || len(label) > 63 {
			return "", fmt.Errorf("%w: bad label in %q", ErrBadDNSMessage, name)
		}
	}
	return name, nil
}

// appendDNSHeader appends a header with the given flags and section counts.
func appendDNSHeader(dst []byte, id, flags uint16, qd, an int) []byte {
	return append(dst,
		byte(id>>8), byte(id),
		byte(flags>>8), byte(flags),
		byte(qd>>8), byte(qd),
		byte(an>>8), byte(an),
		0, 0, 0, 0) // NS and AR counts: not modeled
}

// appendDNSQuestion appends a question for a canonical name, written
// uncompressed.
func appendDNSQuestion(dst []byte, name string, qtype uint16) []byte {
	for rest, more := name, name != ""; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0, byte(qtype>>8), byte(qtype), 0, dnsClassIN)
}

// appendDNSRecord appends a record for a canonical name: the question form
// followed by TTL, RDATA length and RDATA.
func appendDNSRecord(dst []byte, name string, rtype uint16, ttl uint32, data []byte) []byte {
	dst = appendDNSQuestion(dst, name, rtype)
	dst = append(dst, byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl),
		byte(len(data)>>8), byte(len(data)))
	return append(dst, data...)
}

// parseDNSName decodes one name starting at off, following compression
// pointers (bounded, backward-only), into a buffer on the stack. It returns
// the canonical name and the offset just past the name in the original
// stream. A name equal to prev is returned as prev itself, so a decode into
// reused storage allocates only the names it has not seen.
func parseDNSName(b []byte, off int, prev string) (string, int, error) {
	var buf [maxDNSName]byte
	name := buf[:0]
	next := -1           // offset after the first pointer, -1 until one is seen
	jumps, total := 0, 1 // total counts wire octets, the root's included
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("%w: truncated name", ErrBadDNSMessage)
		}
		l := int(b[off])
		switch {
		case l == 0:
			off++
			if next < 0 {
				next = off
			}
			if string(name) == prev {
				return prev, next, nil
			}
			return string(name), next, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return "", 0, fmt.Errorf("%w: truncated pointer", ErrBadDNSMessage)
			}
			target := (l&0x3F)<<8 | int(b[off+1])
			if target >= off {
				return "", 0, fmt.Errorf("%w: forward compression pointer", ErrBadDNSMessage)
			}
			if jumps++; jumps > maxDNSPointerJumps {
				return "", 0, fmt.Errorf("%w: compression pointer chain too long", ErrBadDNSMessage)
			}
			if next < 0 {
				next = off + 2
			}
			off = target
		case l&0xC0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type %#x", ErrBadDNSMessage, l)
		default:
			if off+1+l > len(b) {
				return "", 0, fmt.Errorf("%w: truncated label", ErrBadDNSMessage)
			}
			if total += l + 1; total > maxDNSName {
				return "", 0, fmt.Errorf("%w: name too long", ErrBadDNSMessage)
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			for _, c := range b[off+1 : off+1+l] {
				if c == '.' {
					return "", 0, fmt.Errorf("%w: dot inside label", ErrBadDNSMessage)
				}
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				name = append(name, c)
			}
			off += 1 + l
		}
	}
}

// AppendDNSMessage appends m's wire form to dst. Names are validated and
// written uncompressed, so a parse of the result is canonical.
func AppendDNSMessage(dst []byte, m *DNSMessage) ([]byte, error) {
	var flags uint16
	if m.Response {
		flags |= dnsFlagQR
	}
	if m.RD {
		flags |= dnsFlagRD
	}
	if m.RA {
		flags |= dnsFlagRA
	}
	flags |= uint16(m.RCode & 0x0F)
	dst = appendDNSHeader(dst, m.ID, flags, len(m.Questions), len(m.Answers))
	for i := range m.Questions {
		q := &m.Questions[i]
		name, err := canonicalDNSName(q.Name)
		if err != nil {
			return nil, err
		}
		dst = appendDNSQuestion(dst, name, q.Type)
	}
	for i := range m.Answers {
		rr := &m.Answers[i]
		name, err := canonicalDNSName(rr.Name)
		if err != nil {
			return nil, err
		}
		if len(rr.Data) > 0xFFFF {
			return nil, fmt.Errorf("%w: RDATA too long", ErrBadDNSMessage)
		}
		dst = appendDNSRecord(dst, name, rr.Type, rr.TTL, rr.Data)
	}
	return dst, nil
}

// EncodeDNSMessage renders m in wire form.
func EncodeDNSMessage(m *DNSMessage) ([]byte, error) {
	return AppendDNSMessage(nil, m)
}

// ParseDNSMessage decodes one DNS message (see DNSMessage.decode). It
// never panics on arbitrary input; each record's Data aliases b.
func ParseDNSMessage(b []byte) (*DNSMessage, error) {
	m := new(DNSMessage)
	if err := m.decode(b); err != nil {
		return nil, err
	}
	return m, nil
}

// decode parses b into m, validating every field: header and section
// lengths, label structure, pointer chains, class, RDATA bounds. Section
// counts are checked against the bytes actually present before anything is
// allocated, so a hostile header cannot demand unbounded memory. It reuses
// m's storage: a section that fits its capacity keeps its slots, a name
// equal to the one its slot held keeps that string, and each record's Data
// aliases b.
func (m *DNSMessage) decode(b []byte) error {
	if len(b) < dnsHeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrBadDNSMessage, len(b))
	}
	flags := uint16(b[2])<<8 | uint16(b[3])
	if op := (flags >> 11) & 0xF; op != 0 {
		return fmt.Errorf("%w: opcode %d unsupported", ErrBadDNSMessage, op)
	}
	qd := int(b[4])<<8 | int(b[5])
	an := int(b[6])<<8 | int(b[7])
	if ns, ar := int(b[8])<<8|int(b[9]), int(b[10])<<8|int(b[11]); ns != 0 || ar != 0 {
		return fmt.Errorf("%w: authority/additional sections unsupported", ErrBadDNSMessage)
	}
	// A question costs >= 5 bytes on the wire, a record >= 11: reject
	// counts the message cannot possibly hold.
	if qd*5+an*11 > len(b)-dnsHeaderLen {
		return fmt.Errorf("%w: counts qd=%d an=%d exceed %d bytes", ErrBadDNSMessage, qd, an, len(b))
	}
	m.ID = uint16(b[0])<<8 | uint16(b[1])
	m.Response = flags&dnsFlagQR != 0
	m.RD = flags&dnsFlagRD != 0
	m.RA = flags&dnsFlagRA != 0
	m.RCode = uint8(flags & 0x0F)
	m.Questions = slices.Grow(m.Questions[:0], qd)[:qd]
	m.Answers = slices.Grow(m.Answers[:0], an)[:an]
	off := dnsHeaderLen
	var err error
	for i := range m.Questions {
		q := &m.Questions[i]
		if q.Name, off, err = parseDNSName(b, off, q.Name); err != nil {
			return err
		}
		if off+4 > len(b) {
			return fmt.Errorf("%w: truncated question", ErrBadDNSMessage)
		}
		q.Type = uint16(b[off])<<8 | uint16(b[off+1])
		if class := uint16(b[off+2])<<8 | uint16(b[off+3]); class != dnsClassIN {
			return fmt.Errorf("%w: class %d unsupported", ErrBadDNSMessage, class)
		}
		off += 4
	}
	for i := range m.Answers {
		rr := &m.Answers[i]
		if rr.Name, off, err = parseDNSName(b, off, rr.Name); err != nil {
			return err
		}
		if off+10 > len(b) {
			return fmt.Errorf("%w: truncated record", ErrBadDNSMessage)
		}
		rr.Type = uint16(b[off])<<8 | uint16(b[off+1])
		if class := uint16(b[off+2])<<8 | uint16(b[off+3]); class != dnsClassIN {
			return fmt.Errorf("%w: class %d unsupported", ErrBadDNSMessage, class)
		}
		rr.TTL = uint32(b[off+4])<<24 | uint32(b[off+5])<<16 | uint32(b[off+6])<<8 | uint32(b[off+7])
		rdlen := int(b[off+8])<<8 | int(b[off+9])
		off += 10
		if off+rdlen > len(b) {
			return fmt.Errorf("%w: RDATA %d bytes past end", ErrBadDNSMessage, rdlen)
		}
		rr.Data = b[off : off+rdlen : off+rdlen]
		off += rdlen
	}
	return nil
}

// Zone is one machine's authoritative name data: canonical names mapped to
// A records with a virtual-time TTL. Registration flows through the domain
// nameserver (Machine.ServeDNS exports the zone's interface and the server
// imports it back), keeping SPIN's naming discipline: the network
// nameserver is an extension wired up by name, not a special case.
type Zone struct {
	mu   sync.Mutex
	recs map[string]zoneEntry
}

type zoneEntry struct {
	addrs []IPAddr
	ttl   sim.Duration
}

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{recs: make(map[string]zoneEntry)}
}

// AddA maps name to addrs with the given TTL (how long resolvers may cache
// the answer, in virtual time; <= 0 means 60 virtual seconds). Re-adding a
// name replaces its records.
func (z *Zone) AddA(name string, ttl sim.Duration, addrs ...IPAddr) error {
	cn, err := canonicalDNSName(name)
	if err != nil {
		return err
	}
	if cn == "" {
		return fmt.Errorf("%w: empty zone name", ErrBadDNSMessage)
	}
	if ttl <= 0 {
		ttl = 60 * sim.Second
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.recs[cn] = zoneEntry{addrs: append([]IPAddr(nil), addrs...), ttl: ttl}
	return nil
}

// Remove withdraws name from the zone, reporting whether it was present.
func (z *Zone) Remove(name string) bool {
	cn, err := canonicalDNSName(name)
	if err != nil {
		return false
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	_, ok := z.recs[cn]
	delete(z.recs, cn)
	return ok
}

// LookupA reports the A records for a canonical name; ok is false when the
// name does not exist at all (NXDOMAIN, as opposed to NODATA).
func (z *Zone) LookupA(name string) (addrs []IPAddr, ttl sim.Duration, ok bool) {
	cn, err := canonicalDNSName(name)
	if err != nil {
		return nil, 0, false
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	e, ok := z.recs[cn]
	if !ok {
		return nil, 0, false
	}
	return append([]IPAddr(nil), e.addrs...), e.ttl, true
}

// Names lists the zone's names, sorted.
func (z *Zone) Names() []string {
	z.mu.Lock()
	defer z.mu.Unlock()
	out := make([]string, 0, len(z.recs))
	for n := range z.recs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ZoneLookup is the authority interface a DNS server answers from — the
// symbol a zone exports through the domain nameserver.
type ZoneLookup func(name string) (addrs []IPAddr, ttl sim.Duration, ok bool)

// DNSServer answers A queries on UDP port 53 from a ZoneLookup authority.
type DNSServer struct {
	stack  *Stack
	lookup ZoneLookup
	// query is the query being answered, decoded in place: serve runs on
	// the simulation goroutine, one datagram at a time.
	query DNSMessage

	queries   atomic.Int64 // well-formed queries received
	answered  atomic.Int64 // replies carrying A records
	nxdomain  atomic.Int64 // names not in the zone
	nodata    atomic.Int64 // names present but without records of the asked type
	malformed atomic.Int64 // datagrams the codec (or shape check) rejected
}

// NewDNSServer binds the server to UDP port 53 with in-kernel delivery,
// owned by owner so the port is released when the owner's domain is
// destroyed. lookup is the authority — typically a Zone's LookupA,
// imported through the machine's domain nameserver.
func NewDNSServer(owner string, stack *Stack, lookup ZoneLookup) (*DNSServer, error) {
	if lookup == nil {
		return nil, errors.New("netstack: DNS server needs a zone lookup")
	}
	s := &DNSServer{stack: stack, lookup: lookup}
	if err := stack.UDP().BindOwned(owner, DNSPort, InKernelDelivery, s.serve); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the server's port.
func (s *DNSServer) Close() { s.stack.UDP().Unbind(DNSPort) }

// Metrics emits the server's query counters. Safe from any goroutine.
func (s *DNSServer) Metrics(emit metrics.Emit) {
	emit("dns_server_queries", float64(s.queries.Load()))
	emit("dns_server_answered", float64(s.answered.Load()))
	emit("dns_server_nxdomain", float64(s.nxdomain.Load()))
	emit("dns_server_nodata", float64(s.nodata.Load()))
	emit("dns_server_malformed", float64(s.malformed.Load()))
}

// serve answers one query datagram. Malformed or non-query traffic is
// dropped (the resolver's timeout covers it); a well-formed single-question
// query always gets a reply: answers, NODATA, or NXDOMAIN. The reply is
// encoded into a buffer on the stack, which Send copies into its packet.
func (s *DNSServer) serve(pkt *Packet) {
	q := &s.query
	if err := q.decode(pkt.Payload); err != nil || q.Response || len(q.Questions) != 1 {
		s.malformed.Add(1)
		return
	}
	question := q.Questions[0]
	addrs, ttl, exists := s.lookup(question.Name)
	s.queries.Add(1)
	flags := uint16(dnsFlagQR | dnsFlagRA)
	if q.RD {
		flags |= dnsFlagRD
	}
	switch {
	case !exists:
		flags |= DNSRCodeNXDomain
		addrs = nil
		s.nxdomain.Add(1)
	case question.Type != DNSTypeA || len(addrs) == 0:
		// The name exists but has nothing of the asked type: NODATA — an
		// empty NOERROR answer (we only store A records).
		addrs = nil
		s.nodata.Add(1)
	default:
		s.answered.Add(1)
	}
	ttlSec := uint32((ttl + sim.Second - 1) / sim.Second)
	if ttlSec == 0 {
		ttlSec = 1
	}
	var buf [512]byte
	wire := appendDNSHeader(buf[:0], q.ID, flags, 1, len(addrs))
	wire = appendDNSQuestion(wire, question.Name, question.Type)
	for _, a := range addrs {
		rdata := [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
		wire = appendDNSRecord(wire, question.Name, DNSTypeA, ttlSec, rdata[:])
	}
	_ = s.stack.UDP().Send(DNSPort, pkt.Src, pkt.SrcPort, wire)
}

// DNSTransport carries one encoded query to a server and delivers the raw
// reply — the pluggable layer under the Resolver. msg is valid only for the
// call. done must be called at most once, from the simulation goroutine; the
// transport never runs its own timer (timeout policy lives in the Resolver,
// which calls cancel).
type DNSTransport interface {
	Query(server IPAddr, msg []byte, done func(reply []byte, err error)) (cancel func(), err error)
}

// dnsOverUDP is a Resolver's default transport. Its first query binds an
// ephemeral UDP port for replies, and every later query shares it. The
// port is predictable, so a datagram counts as a query's reply only if it
// passes RFC 5452 §9.1's checks: it comes from the queried server's port 53
// and carries the query's ID. Anything else is dropped and the port stays
// bound. Two queries outstanding to one server never carry the same ID
// (Resolver.queryID).
type dnsOverUDP struct {
	stack *Stack
	port  uint16       // the reply port; 0 until the first query binds it
	out   []*dnsLookup // the lookups whose attempt awaits its reply
}

// send transmits lk's query msg from the reply port, binding the port on
// first use, and holds lk for the reply.
func (t *dnsOverUDP) send(lk *dnsLookup, msg []byte) error {
	udp := t.stack.UDP()
	if t.port == 0 {
		port, err := udp.EphemeralPort()
		if err != nil {
			return err
		}
		if err := udp.Bind(port, InKernelDelivery, t.receive); err != nil {
			return err
		}
		t.port = port
	}
	t.out = append(t.out, lk)
	if err := udp.Send(t.port, lk.server, DNSPort, msg); err != nil {
		t.cancel(lk)
		return err
	}
	return nil
}

// find returns the index of the lookup whose query to server carries id, or
// -1.
func (t *dnsOverUDP) find(server IPAddr, id uint16) int {
	for i, lk := range t.out {
		if lk.server == server && lk.id == id {
			return i
		}
	}
	return -1
}

// cancel withdraws lk's query, if it is still outstanding; its reply, if
// one comes, is dropped.
func (t *dnsOverUDP) cancel(lk *dnsLookup) {
	if i := slices.Index(t.out, lk); i >= 0 {
		t.out = slices.Delete(t.out, i, i+1)
	}
}

// receive matches a datagram at the reply port against the outstanding
// queries and hands a match its reply, to read in place.
func (t *dnsOverUDP) receive(pkt *Packet) {
	if pkt.SrcPort != DNSPort || len(pkt.Payload) < dnsHeaderLen {
		return
	}
	i := t.find(pkt.Src, uint16(pkt.Payload[0])<<8|uint16(pkt.Payload[1]))
	if i < 0 {
		return
	}
	lk := t.out[i]
	t.out = slices.Delete(t.out, i, i+1)
	lk.onReply(pkt.Payload, nil)
}

const (
	// positiveTTLCap clamps how long answers may be cached, regardless of
	// the record TTL.
	positiveTTLCap = 3600 * sim.Second
	// resolverTimeout is the first attempt's wait; later attempts double
	// it.
	resolverTimeout = 500 * sim.Millisecond
	// resolverAttempts is the total number of queries sent before giving
	// up.
	resolverAttempts = 3
	// negativeTTL is how long NXDOMAIN/NODATA results are cached.
	negativeTTL = 5 * sim.Second
)

// ResolverConfig tunes a Resolver. The zero value resolves against no
// servers (every lookup fails), so Servers is the one required field.
type ResolverConfig struct {
	// Servers are tried in order, one per attempt, wrapping around.
	Servers []IPAddr
	// Transport overrides the default UDP transport.
	Transport DNSTransport
	// Seed drives query IDs and retry jitter; fixed seed, fixed byte
	// stream.
	Seed uint64
}

// resolverStats counts one resolver's work.
type resolverStats struct {
	Lookups      int64 // LookupA calls
	CacheHits    int64 // answered from the positive cache
	NegativeHits int64 // answered from the negative cache
	Sent         int64 // queries actually transmitted
	Retries      int64 // attempts past the first
	Timeouts     int64 // lookups that exhausted every attempt
	Failures     int64 // negative answers (NXDOMAIN/NODATA)
}

// Resolver is a caching stub resolver over a DNSTransport. All methods
// must be called from the simulation goroutine (they arm engine timers);
// the socket adapters' Dialer wraps LookupA for blocking callers.
type Resolver struct {
	stack *Stack
	cfg   ResolverConfig
	udp   *dnsOverUDP // the default transport; nil when cfg.Transport is set
	rand  *sim.Rand

	query []byte     // the query being sent, encoded in place
	reply DNSMessage // the reply being read, decoded in place

	pos   map[string]dnsPosEntry
	neg   map[string]dnsNegEntry
	stats resolverStats
}

type dnsPosEntry struct {
	addrs   []IPAddr
	expires sim.Time
}

type dnsNegEntry struct {
	err     error
	expires sim.Time
}

// NewResolver builds a resolver for stack from cfg.
func NewResolver(stack *Stack, cfg ResolverConfig) *Resolver {
	r := &Resolver{
		stack: stack, cfg: cfg,
		rand: sim.NewRand(cfg.Seed ^ 0xd15ba11ad),
		pos:  make(map[string]dnsPosEntry),
		neg:  make(map[string]dnsNegEntry),
	}
	if cfg.Transport == nil {
		r.udp = &dnsOverUDP{stack: stack}
	}
	return r
}

// Metrics emits the resolver's counters. They are plain fields, so it runs
// on the simulation goroutine, like every Resolver method.
func (r *Resolver) Metrics(emit metrics.Emit) {
	emit("dns_resolver_lookups", float64(r.stats.Lookups))
	emit("dns_resolver_cache_hits", float64(r.stats.CacheHits))
	emit("dns_resolver_negative_hits", float64(r.stats.NegativeHits))
	emit("dns_resolver_sent", float64(r.stats.Sent))
	emit("dns_resolver_retries", float64(r.stats.Retries))
	emit("dns_resolver_timeouts", float64(r.stats.Timeouts))
	emit("dns_resolver_failures", float64(r.stats.Failures))
}

// FlushCache empties both caches (benchmarks measure uncached resolves).
func (r *Resolver) FlushCache() {
	clear(r.pos)
	clear(r.neg)
}

// Flush drops any cached answer (positive or negative) for one name, so
// the next lookup goes back to the authority — the hook a zone withdrawal
// uses to bound staleness at the negative TTL instead of the record's
// remaining positive TTL. It reports whether anything was cached.
// Simulation-goroutine context, like every Resolver method.
func (r *Resolver) Flush(name string) bool {
	cn, err := canonicalDNSName(name)
	if err != nil || cn == "" {
		return false
	}
	_, hadPos := r.pos[cn]
	_, hadNeg := r.neg[cn]
	delete(r.pos, cn)
	delete(r.neg, cn)
	return hadPos || hadNeg
}

// LookupA resolves name to its A records. cb runs exactly once —
// synchronously for cache hits and malformed names, otherwise when a reply
// lands or the last attempt times out, always on the simulation goroutine.
func (r *Resolver) LookupA(name string, cb func(addrs []IPAddr, err error)) {
	r.stats.Lookups++
	cn, err := canonicalDNSName(name)
	if err != nil || cn == "" {
		if err == nil {
			err = fmt.Errorf("%w: empty name", ErrBadDNSMessage)
		}
		cb(nil, err)
		return
	}
	now := r.stack.clock.Now()
	if e, ok := r.pos[cn]; ok {
		if now < e.expires {
			r.stats.CacheHits++
			cb(slices.Clone(e.addrs), nil)
			return
		}
		delete(r.pos, cn)
	}
	if e, ok := r.neg[cn]; ok {
		if now < e.expires {
			r.stats.NegativeHits++
			cb(nil, e.err)
			return
		}
		delete(r.neg, cn)
	}
	if len(r.cfg.Servers) == 0 {
		cb(nil, fmt.Errorf("%w: no DNS servers configured", ErrDNSTimeout))
		return
	}
	lk := &dnsLookup{r: r, name: cn, cb: cb}
	lk.timeout.Do = lk.onTimeout
	lk.attempt()
}

// queryID draws the next query ID from the seeded stream, drawing again
// while the default transport has a query with that ID outstanding to
// server, so each reply matches one query. With 65,536 queries outstanding
// every ID may be taken, and it stops looking.
func (r *Resolver) queryID(server IPAddr) uint16 {
	id := uint16(r.rand.Uint64())
	for r.udp != nil && len(r.udp.out) < 1<<16 && r.udp.find(server, id) >= 0 {
		id = uint16(r.rand.Uint64())
	}
	return id
}

// dnsLookup is one in-flight resolution: its attempt counter walks the
// server list with doubling timeouts until a reply lands or the budget is
// spent.
type dnsLookup struct {
	r        *Resolver
	name     string
	cb       func([]IPAddr, error)
	tries    int
	done     bool
	server   IPAddr // the attempt in flight's server and query ID
	id       uint16
	cancelTx func()    // cfg.Transport's cancel for the attempt in flight
	timeout  sim.Event // owner-held, one per lookup, re-armed per attempt
}

func (lk *dnsLookup) attempt() {
	r := lk.r
	lk.server = r.cfg.Servers[lk.tries%len(r.cfg.Servers)]
	lk.id = r.queryID(lk.server)
	r.query = appendDNSHeader(r.query[:0], lk.id, dnsFlagRD, 1, 0)
	r.query = appendDNSQuestion(r.query, lk.name, DNSTypeA)
	if lk.tries > 0 {
		r.stats.Retries++
	}
	lk.tries++
	r.stats.Sent++
	var err error
	if r.udp != nil {
		err = r.udp.send(lk, r.query)
	} else {
		lk.cancelTx, err = r.cfg.Transport.Query(lk.server, r.query, lk.onReply)
	}
	if lk.done {
		// The transport delivered the reply synchronously; there is
		// nothing to time out.
		return
	}
	if err != nil {
		// Transport refusal (ports exhausted, no route): burn the attempt
		// after a timeout rather than spinning through the budget
		// instantly.
		lk.cancelTx = nil
	}
	// Exponential backoff per attempt plus seeded jitter, so a fleet of
	// resolvers retrying through the same outage does not self-
	// synchronize — and so the retry times are a pure function of the
	// seed.
	base := resolverTimeout << (lk.tries - 1)
	jitter := sim.Duration(r.rand.Uint64() % uint64(base/8+1))
	r.stack.engine.Arm(&lk.timeout, base+jitter)
}

func (lk *dnsLookup) onReply(reply []byte, err error) {
	if lk.done {
		return
	}
	if err != nil {
		lk.retryOrFail()
		return
	}
	r := lk.r
	m := &r.reply
	if m.decode(reply) != nil || !m.Response || m.ID != lk.id ||
		len(m.Questions) != 1 || m.Questions[0].Name != lk.name || m.Questions[0].Type != DNSTypeA {
		// A reply that is not ours (stale, spoofed-looking, or mangled)
		// is ignored; the timeout still stands guard. The default
		// transport has already matched its source and ID and withdrawn
		// the query, so this attempt can now only end by timeout.
		return
	}
	now := r.stack.clock.Now()
	if m.RCode == DNSRCodeNXDomain {
		err := fmt.Errorf("%w: %s: NXDOMAIN", ErrNameNotFound, lk.name)
		r.neg[lk.name] = dnsNegEntry{err: err, expires: now.Add(negativeTTL)}
		r.stats.Failures++
		lk.finish(nil, err)
		return
	}
	if m.RCode != DNSRCodeOK {
		lk.retryOrFail()
		return
	}
	var found [8]IPAddr
	addrs := found[:0]
	minTTL := positiveTTLCap
	for i := range m.Answers {
		rr := &m.Answers[i]
		if rr.Type != DNSTypeA || len(rr.Data) != 4 || rr.Name != lk.name {
			continue
		}
		addrs = append(addrs, IPAddr(uint32(rr.Data[0])<<24|uint32(rr.Data[1])<<16|uint32(rr.Data[2])<<8|uint32(rr.Data[3])))
		if ttl := sim.Duration(rr.TTL) * sim.Second; ttl < minTTL {
			minTTL = ttl
		}
	}
	if len(addrs) == 0 {
		// NOERROR with no usable answers: NODATA.
		err := fmt.Errorf("%w: %s: no A records", ErrNameNotFound, lk.name)
		r.neg[lk.name] = dnsNegEntry{err: err, expires: now.Add(negativeTTL)}
		r.stats.Failures++
		lk.finish(nil, err)
		return
	}
	if minTTL < sim.Second {
		minTTL = sim.Second
	}
	r.pos[lk.name] = dnsPosEntry{addrs: slices.Clone(addrs), expires: now.Add(minTTL)}
	lk.finish(slices.Clone(addrs), nil)
}

func (lk *dnsLookup) onTimeout() {
	if lk.done {
		return
	}
	lk.cancel()
	lk.retryOrFail()
}

// cancel withdraws the attempt in flight's query from its transport.
func (lk *dnsLookup) cancel() {
	if lk.r.udp != nil {
		lk.r.udp.cancel(lk)
	} else if lk.cancelTx != nil {
		lk.cancelTx()
		lk.cancelTx = nil
	}
}

func (lk *dnsLookup) retryOrFail() {
	if lk.tries < resolverAttempts {
		lk.attempt()
		return
	}
	lk.r.stats.Timeouts++
	lk.finish(nil, fmt.Errorf("%w: %s after %d attempts", ErrDNSTimeout, lk.name, lk.tries))
}

func (lk *dnsLookup) finish(addrs []IPAddr, err error) {
	if lk.done {
		return
	}
	lk.done = true
	lk.timeout.Disarm()
	lk.cancel()
	lk.cb(addrs, err)
}
