package netstack

import (
	"bytes"
	"strconv"
	"unicode"
)

// HTTPContent supplies document bodies to the in-kernel HTTP server. The
// web server experiment (paper §5.4) wires this to the file system with a
// hybrid cache; tests can use a map.
type HTTPContent interface {
	// Get returns the body for path, or ok=false for 404.
	Get(path string) (body []byte, ok bool)
}

// ContentMap is a trivial in-memory HTTPContent.
type ContentMap map[string][]byte

// Get implements HTTPContent.
func (m ContentMap) Get(path string) ([]byte, bool) {
	b, ok := m[path]
	return b, ok
}

// HTTPServer is the HTTP extension: the HyperText Transport Protocol
// implemented directly within the kernel, "splicing together the protocol
// stack and the local file system" so a server can respond quickly.
type HTTPServer struct {
	stack   *Stack
	content HTTPContent
	// partial holds, by connection, the requests that arrived split across
	// deliveries, until their blank line arrives.
	partial map[*Conn][]byte
	// Requests counts GETs served.
	Requests int64
	// NotFound counts 404s.
	NotFound int64
}

// NewHTTPServer starts the extension listening on port (normally 80).
func NewHTTPServer(stack *Stack, port uint16, cost DeliveryCost, content HTTPContent) (*HTTPServer, error) {
	return NewHTTPServerOwned("", stack, port, cost, content)
}

// NewHTTPServerOwned is NewHTTPServer with a recorded owning principal, so
// the listener is withdrawn when the owner's domain is destroyed
// (DestroyDomain's "net.tcp" reclaimer) — the crash-only kill switch the
// failover experiments flip on a backend.
func NewHTTPServerOwned(owner string, stack *Stack, port uint16, cost DeliveryCost, content HTTPContent) (*HTTPServer, error) {
	h := &HTTPServer{stack: stack, content: content}
	err := stack.TCP().ListenOwned(owner, port, cost, func(c *Conn) {
		c.Handler = (*serverConns)(h)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// blankLine ends a request's or a response's header.
var blankLine = []byte("\r\n\r\n")

// The status lines the server writes. A client hands them to its caller as
// these strings, not as copies of the bytes (statusLine).
const (
	statusOK         = "HTTP/1.0 200 OK"
	statusBadRequest = "HTTP/1.0 400 Bad Request"
	statusNotFound   = "HTTP/1.0 404 Not Found"
)

// serverConns is the server as the handler every connection shares.
type serverConns HTTPServer

func (s *serverConns) Connected(*Conn) {}

// Received takes a connection's delivered bytes. A request that arrives
// whole in one delivery is served from them in place; only one split across
// deliveries is copied, into partial, until it is whole.
func (s *serverConns) Received(c *Conn, data []byte) {
	h := (*HTTPServer)(s)
	if req, split := h.partial[c]; split || !bytes.Contains(data, blankLine) {
		if req = append(req, data...); !bytes.Contains(req, blankLine) {
			if h.partial == nil {
				h.partial = make(map[*Conn][]byte)
			}
			h.partial[c] = req
			return // request incomplete
		}
		delete(h.partial, c)
		data = req
	}
	h.serve(c, data)
}

func (s *serverConns) Sent(*Conn) {}

// Closed forgets the connection. A client that closes before its request is
// whole can send no more of it: the part held is dropped and the server
// closes its half too.
func (s *serverConns) Closed(c *Conn) {
	delete(s.partial, c)
	_ = c.Close()
}

// serve parses one request and sends the response on the connection. When
// tracing is enabled the whole serve — parse, content lookup, response
// send — is one sample in the "net.http.serve" latency series.
func (h *HTTPServer) serve(c *Conn, req []byte) {
	if tr := h.stack.disp.Tracer(); tr != nil {
		start := h.stack.clock.Now()
		defer func() {
			tr.Observe("net.http.serve", h.stack.clock.Now().Sub(start))
		}()
	}
	h.serve1(c, req)
}

// firstField returns the first whitespace-separated word of s and what
// follows it: strings.Fields, one word at a time.
func firstField(s []byte) (word, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}

func (h *HTTPServer) serve1(c *Conn, req []byte) {
	line, _, _ := bytes.Cut(req, []byte("\r\n"))
	method, line := firstField(line)
	path, _ := firstField(line)
	if len(path) == 0 || string(method) != "GET" {
		_ = c.Send([]byte(statusBadRequest + "\r\n\r\n"))
		c.Close()
		return
	}
	body, ok := h.content.Get(string(path))
	if !ok {
		h.NotFound++
		_ = c.Send([]byte(statusNotFound + "\r\n\r\n"))
		c.Close()
		return
	}
	h.Requests++
	var buf [64]byte
	header := append(buf[:0], statusOK+"\r\nContent-Length: "...)
	header = strconv.AppendInt(header, int64(len(body)), 10)
	header = append(header, "\r\n\r\n"...)
	n := min(len(body), max(SendBufSize-c.Buffered()-len(header), 0))
	_ = c.Send(header, body[:n])
	if n < len(body) {
		c.Handler = &bodyRest{(*serverConns)(h), body[n:]}
		return
	}
	c.Close()
}

// bodyRest is a connection's handler while the rest of a body larger than
// the send buffer waits: the server's, but that Sent queues more of the
// body as ACKs free room, and closes the connection behind its last byte.
type bodyRest struct {
	*serverConns
	body []byte
}

func (r *bodyRest) Sent(c *Conn) {
	n := min(len(r.body), SendBufSize-c.Buffered())
	if c.Send(r.body[:n]) == nil {
		if r.body = r.body[n:]; len(r.body) == 0 {
			c.Close()
		}
	}
}

// responseSize reads the length of the response whose first bytes are b
// from its Content-Length, once the header is complete, or returns 0. It
// sizes a buffer, so a peer's header can make it at most a MiB.
func responseSize(b []byte) int {
	header, _, complete := bytes.Cut(b, blankLine)
	_, v, _ := bytes.Cut(header, []byte("Content-Length: "))
	v, _, _ = bytes.Cut(v, []byte("\r\n"))
	if n, err := strconv.Atoi(string(v)); complete && err == nil && n >= 0 {
		return min(len(header)+4+n, 1<<20)
	}
	return 0
}

// HTTPGet performs one HTTP transaction from this stack to server:port,
// invoking done with the response body when the transfer completes (the
// server closing the connection ends the body). done runs at most once, on
// every ending: the server's close, a reset, a timeout.
//
// The body is lent, like a handler's packet payload: its storage belongs
// to the stack's TCP module, which gives it to a later GET once done
// returns, so a caller that keeps the body past done copies it. So is the
// GET's own state: the module keeps it for the next GET, and the
// connection, which the caller may still hold, has no Handler once done
// has run.
func HTTPGet(stack *Stack, server IPAddr, port uint16, path string, cost DeliveryCost, done func(status string, body []byte)) error {
	t := stack.TCP()
	conn, err := t.Connect(server, port, cost)
	if err != nil {
		return err
	}
	g := t.spareGets.take()
	if g == nil {
		g = new(httpGet)
	}
	g.path, g.done = path, done
	conn.Handler = g
	return nil
}

// httpGet is one GET's state and its connection's handler.
type httpGet struct {
	path string
	done func(status string, body []byte)
	resp []byte // lent by the TCP module from the first delivery to the end of done
}

func (g *httpGet) Connected(c *Conn) {
	_ = c.Send([]byte("GET "), []byte(g.path), []byte(" HTTP/1.0\r\n\r\n"))
}

// Received appends delivered bytes to the response. The first delivery
// borrows storage for all of it, sized from its Content-Length.
func (g *httpGet) Received(c *Conn, data []byte) {
	if g.resp == nil {
		n := max(len(data), responseSize(data))
		if g.resp = c.tcp.spareBodies.take(n); g.resp == nil {
			g.resp = make([]byte, 0, n)
		}
	}
	g.resp = append(g.resp, data...)
}

func (g *httpGet) Sent(*Conn) {}

// Closed ends the GET: the first close of either kind (the server's FIN, a
// reset, a timeout) runs done, and then g goes back to the TCP module for
// the next GET. c lets go of g first, so nothing of c's reaches that GET.
func (g *httpGet) Closed(c *Conn) {
	c.Handler = nil
	c.Close() // complete our half of the teardown
	if g.done != nil {
		headers, body, found := bytes.Cut(g.resp, blankLine)
		status, _, _ := bytes.Cut(headers, []byte("\r\n"))
		if !found {
			body = nil
		}
		g.done(statusLine(status), body)
	}
	t := c.tcp
	t.spareBodies.give(g.resp[:0], maxSpareBytes)
	*g = httpGet{}
	t.spareGets = append(t.spareGets, g)
}

// statusLine returns a response's status line: one the server writes as
// its constant, anything else as a copy.
func statusLine(b []byte) string {
	for _, s := range [...]string{statusOK, statusNotFound, statusBadRequest} {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}
