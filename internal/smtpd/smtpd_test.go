package smtpd

import (
	"bufio"
	"crypto/tls"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/pki"
)

// client is a tiny raw SMTP test client.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, b Behavior) (*Server, *client) {
	t.Helper()
	srv := New(b)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return srv, &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// expect reads one (possibly multiline) reply and asserts its code.
func (c *client) expect(code int) []string {
	c.t.Helper()
	var lines []string
	for {
		raw, err := c.r.ReadString('\n')
		if err != nil {
			c.t.Fatalf("read: %v", err)
		}
		raw = strings.TrimRight(raw, "\r\n")
		if len(raw) < 3 {
			c.t.Fatalf("short reply %q", raw)
		}
		got, err := strconv.Atoi(raw[:3])
		if err != nil {
			c.t.Fatalf("bad reply %q", raw)
		}
		if got != code {
			c.t.Fatalf("reply code = %d (%q), want %d", got, raw, code)
		}
		lines = append(lines, raw)
		if len(raw) == 3 || raw[3] != '-' {
			return lines
		}
	}
}

func (c *client) send(line string) {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(line + "\r\n")); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func testCert(t *testing.T, names ...string) *tls.Certificate {
	t.Helper()
	ca, err := pki.NewCA("smtpd test", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(pki.IssueOptions{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	cert := leaf.TLSCertificate()
	return &cert
}

func TestBannerAndEHLO(t *testing.T) {
	_, c := dial(t, Behavior{Hostname: "mx.test.example", Certificate: testCert(t, "mx.test.example")})
	c.expect(220)
	c.send("EHLO client.example")
	lines := c.expect(250)
	var hasStartTLS, hasPipelining bool
	for _, l := range lines {
		if strings.Contains(l, "STARTTLS") {
			hasStartTLS = true
		}
		if strings.Contains(l, "PIPELINING") {
			hasPipelining = true
		}
	}
	if !hasStartTLS || !hasPipelining {
		t.Errorf("EHLO lines = %v", lines)
	}
}

func TestEHLOWithoutSTARTTLS(t *testing.T) {
	_, c := dial(t, Behavior{Hostname: "mx.test.example", DisableSTARTTLS: true})
	c.expect(220)
	c.send("EHLO client.example")
	for _, l := range c.expect(250) {
		if strings.Contains(l, "STARTTLS") {
			t.Error("STARTTLS advertised despite DisableSTARTTLS")
		}
	}
	c.send("STARTTLS")
	c.expect(502)
}

func TestHELOFallbackAndUnknownCommand(t *testing.T) {
	_, c := dial(t, Behavior{Hostname: "mx.test.example", DisableEHLO: true})
	c.expect(220)
	c.send("EHLO client.example")
	c.expect(502)
	c.send("HELO client.example")
	c.expect(250)
	c.send("BOGUS")
	c.expect(500)
	c.send("NOOP")
	c.expect(250)
	c.send("QUIT")
	c.expect(221)
}

func TestMailSequenceEnforced(t *testing.T) {
	_, c := dial(t, Behavior{Hostname: "mx.test.example", AcceptMail: true})
	c.expect(220)
	c.send("HELO x")
	c.expect(250)
	c.send("RCPT TO:<a@b>")
	c.expect(503) // MAIL first
	c.send("DATA")
	c.expect(503) // RCPT first
	c.send("MAIL FROM:<a@b>")
	c.expect(250)
	c.send("RSET")
	c.expect(250)
	c.send("RCPT TO:<c@d>")
	c.expect(503) // RSET cleared the envelope
}

func TestDataDotUnstuffing(t *testing.T) {
	srv, c := dial(t, Behavior{Hostname: "mx.test.example", AcceptMail: true})
	c.expect(220)
	c.send("HELO x")
	c.expect(250)
	c.send("MAIL FROM:<alice@a.example>")
	c.expect(250)
	c.send("RCPT TO:<bob@b.example>")
	c.expect(250)
	c.send("DATA")
	c.expect(354)
	c.send("line one")
	c.send("..stuffed dot")
	c.send(".")
	c.expect(250)
	msgs := srv.Messages()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	body := string(msgs[0].Data)
	if !strings.Contains(body, "line one\n") || !strings.Contains(body, ".stuffed dot") {
		t.Errorf("body = %q", body)
	}
	if strings.Contains(body, "..stuffed") {
		t.Errorf("dot not unstuffed: %q", body)
	}
	if msgs[0].TLS {
		t.Error("plaintext session marked TLS")
	}
}

func TestSTARTTLSUpgradeResetsState(t *testing.T) {
	cert := testCert(t, "mx.test.example")
	_, c := dial(t, Behavior{Hostname: "mx.test.example", Certificate: cert, AcceptMail: true})
	c.expect(220)
	c.send("EHLO x")
	c.expect(250)
	c.send("MAIL FROM:<pre@tls.example>")
	c.expect(250)
	c.send("STARTTLS")
	c.expect(220)

	tlsConn := tls.Client(c.conn, &tls.Config{InsecureSkipVerify: true})
	if err := tlsConn.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	c.conn = tlsConn
	c.r = bufio.NewReader(tlsConn)

	// RFC 3207: the server must have discarded pre-TLS state.
	c.send("RCPT TO:<x@y.example>")
	c.expect(503)
	c.send("EHLO x")
	lines := c.expect(250)
	for _, l := range lines {
		if strings.Contains(l, "STARTTLS") {
			t.Error("STARTTLS still advertised inside TLS")
		}
	}
	c.send("STARTTLS")
	c.expect(503)
}

func TestGreylistFirstContact(t *testing.T) {
	srv, c := dial(t, Behavior{Hostname: "mx.test.example", Greylist: true})
	c.expect(451)
	// Second connection from the same address passes.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(3 * time.Second))
	c2 := &client{t: t, conn: conn2, r: bufio.NewReader(conn2)}
	c2.expect(220)
}

func TestRejectAll(t *testing.T) {
	_, c := dial(t, Behavior{Hostname: "mx.test.example", RejectAll: true})
	c.expect(220)
	c.send("HELO x")
	c.expect(250)
	c.send("MAIL FROM:<a@b>")
	c.expect(554)
	c.send("RCPT TO:<c@d>")
	c.expect(554)
	c.send("DATA")
	c.expect(554)
}

func TestConnCount(t *testing.T) {
	srv, c := dial(t, Behavior{Hostname: "mx.test.example"})
	c.expect(220)
	if srv.ConnCount() != 1 {
		t.Errorf("ConnCount = %d", srv.ConnCount())
	}
}

func TestSetBehavior(t *testing.T) {
	srv, c := dial(t, Behavior{Hostname: "mx.test.example"})
	c.expect(220)
	srv.SetBehavior(Behavior{DisableSTARTTLS: true})
	// New connections see the new behavior; the hostname is preserved.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(3 * time.Second))
	c2 := &client{t: t, conn: conn2, r: bufio.NewReader(conn2)}
	banner := c2.expect(220)
	if !strings.Contains(banner[0], "mx.test.example") {
		t.Errorf("banner = %v", banner)
	}
	c2.send("EHLO x")
	for _, l := range c2.expect(250) {
		if strings.Contains(l, "STARTTLS") {
			t.Error("STARTTLS still advertised")
		}
	}
}

// TestCloseWithIdleClient pins that Close does not wait out an idle
// client's session deadline: it closes the connection and returns.
func TestCloseWithIdleClient(t *testing.T) {
	srv, c := dial(t, Behavior{Hostname: "mx.test.example"})
	c.expect(220) // greeted; the client now goes idle

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1s with an idle client connected")
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("idle client's connection still open after Close")
	}
}
