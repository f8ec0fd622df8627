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
		var reqBuf []byte
		c.OnData = func(c *Conn, data []byte) {
			reqBuf = append(reqBuf, data...)
			if !bytes.Contains(reqBuf, []byte("\r\n\r\n")) {
				return // request incomplete
			}
			h.serve(c, reqBuf)
			reqBuf = nil
		}
	})
	if err != nil {
		return nil, err
	}
	return h, nil
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
		_ = c.Send([]byte("HTTP/1.0 400 Bad Request\r\n\r\n"))
		c.Close()
		return
	}
	body, ok := h.content.Get(string(path))
	if !ok {
		h.NotFound++
		_ = c.Send([]byte("HTTP/1.0 404 Not Found\r\n\r\n"))
		c.Close()
		return
	}
	h.Requests++
	var buf [64]byte
	header := append(buf[:0], "HTTP/1.0 200 OK\r\nContent-Length: "...)
	header = strconv.AppendInt(header, int64(len(body)), 10)
	header = append(header, "\r\n\r\n"...)
	n := min(len(body), max(SendBufSize-c.Buffered()-len(header), 0))
	_ = c.Send(header, body[:n])
	if n < len(body) {
		sendRest(c, body[n:])
		return
	}
	c.Close()
}

// sendRest queues the rest of a body larger than the send buffer as ACKs
// free room, and closes the connection behind its last byte.
func sendRest(c *Conn, body []byte) {
	c.OnSent = func(c *Conn) {
		n := min(len(body), SendBufSize-c.Buffered())
		if c.Send(body[:n]) == nil {
			if body = body[n:]; len(body) == 0 {
				c.Close()
			}
		}
	}
}

// responseSize reads the length of the response whose first bytes are b
// from its Content-Length, once the header is complete, or returns 0. It
// sizes a buffer, so a peer's header can make it at most a MiB.
func responseSize(b []byte) int {
	header, _, complete := bytes.Cut(b, []byte("\r\n\r\n"))
	_, v, _ := bytes.Cut(header, []byte("Content-Length: "))
	v, _, _ = bytes.Cut(v, []byte("\r\n"))
	if n, err := strconv.Atoi(string(v)); complete && err == nil && n >= 0 {
		return min(len(header)+4+n, 1<<20)
	}
	return 0
}

// HTTPGet performs one HTTP transaction from this stack to server:port,
// invoking done with the response body when the transfer completes (the
// server closing the connection ends the body).
func HTTPGet(stack *Stack, server IPAddr, port uint16, path string, cost DeliveryCost, done func(status string, body []byte)) error {
	conn, err := stack.TCP().Connect(server, port, cost)
	if err != nil {
		return err
	}
	var resp []byte
	finished := false
	conn.OnConnect = func(c *Conn) {
		_ = c.Send([]byte("GET " + path + " HTTP/1.0\r\n\r\n"))
	}
	conn.OnData = func(c *Conn, data []byte) {
		if resp == nil {
			resp = make([]byte, 0, max(len(data), responseSize(data)))
		}
		resp = append(resp, data...)
	}
	conn.OnClose = func(c *Conn) {
		if finished {
			return
		}
		finished = true
		c.Close() // complete our half of the teardown
		if done == nil {
			return
		}
		// body is the rest of resp, which nothing else holds any more.
		headers, body, found := bytes.Cut(resp, []byte("\r\n\r\n"))
		status, _, _ := bytes.Cut(headers, []byte("\r\n"))
		if !found {
			body = nil
		}
		done(string(status), body)
	}
	return nil
}
