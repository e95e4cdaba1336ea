package main

import (
	"bufio"
	"crypto/tls"
	"encoding/json"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// Endpoints is how the program under test reaches the world.
type Endpoints struct {
	DNS       string `json:"dns"`
	HTTPSPort int    `json:"https_port"`
	SMTPPort  int    `json:"smtp_port"`
	CAFile    string `json:"ca_file"`
}

// WorldStats are the world-side attribution counters.
type WorldStats struct {
	CPUSeconds float64 `json:"cpu_s"`
	DNSQueries int     `json:"dns_queries"`
	SMTPConns  int     `json:"smtp_conns"`
}

type liveWorld struct {
	dns  *dnsserver.Server
	pol  *policysrv.Server
	smtp []*smtpd.Server
	ep   Endpoints
}

func (lw *liveWorld) stats() WorldStats {
	conns := 0
	for _, s := range lw.smtp {
		conns += s.ConnCount()
	}
	return WorldStats{CPUSeconds: cpuSeconds(), DNSQueries: lw.dns.QueryCount(), SMTPConns: conns}
}

func (lw *liveWorld) close() error {
	var errs []error
	for _, s := range lw.smtp {
		errs = append(errs, s.Close())
	}
	if lw.pol != nil {
		errs = append(errs, lw.pol.Close())
	}
	if lw.dns != nil {
		errs = append(errs, lw.dns.Close())
	}
	return errors.Join(errs...)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runWorld is the world process: it generates the world, serves it on
// loopback, and answers "stats" lines on stdin until stdin closes.
func runWorld(args []string) int {
	fs := flag.NewFlagSet("world", flag.ContinueOnError)
	dir := fs.String("dir", "", "run directory")
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "world seed")
	scale := fs.Float64("scale", 1, "input size multiplier")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := generate(*workload, *seed, sizesFor(*scale))
	if err != nil {
		fmt.Fprintln(os.Stderr, "world:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(*dir, "world.json"), w); err != nil {
		fmt.Fprintln(os.Stderr, "world:", err)
		return 1
	}
	lw, err := startWorld(w, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "world:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(*dir, "endpoints.json"), lw.ep); err != nil {
		fmt.Fprintln(os.Stderr, "world:", err)
		return 1
	}
	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for in.Scan() {
		if in.Text() == "stats" {
			if err := enc.Encode(lw.stats()); err != nil {
				break
			}
		}
	}
	if err := lw.close(); err != nil {
		fmt.Fprintln(os.Stderr, "world: close:", err)
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// startWorld serves the generated world: one authoritative DNS server,
// one multi-tenant HTTPS policy host, and one SMTP listener per MX zone.
func startWorld(w *World, dir string) (*liveWorld, error) {
	now := time.Now()
	ca, err := pki.NewCA("perfbench CA", now)
	if err != nil {
		return nil, err
	}
	caFile := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(caFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw}), 0o644); err != nil {
		return nil, err
	}
	lw := &liveWorld{ep: Endpoints{CAFile: caFile}}

	zones := map[string]*dnszone.Zone{}
	add := func(zone string, rr dnsmsg.RR) error {
		z := zones[zone]
		if z == nil {
			z = dnszone.New(zone)
			zones[zone] = z
		}
		rr.Class, rr.TTL = dnsmsg.ClassIN, 300
		return z.Add(rr)
	}
	addA := func(zone, name, ip string) error {
		return add(zone, dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Data: dnsmsg.AData{Addr: netip.MustParseAddr(ip)}})
	}
	pol := policysrv.New(ca, nil)
	lw.pol = pol
	mxSeen := map[string]bool{}
	var tenantHosts []string
	for i := range w.Domains {
		d := &w.Domains[i]
		tld := zoneOf(d.Name)
		for j, mx := range d.MX {
			if err := add(tld, dnsmsg.RR{Name: d.Name, Type: dnsmsg.TypeMX, Data: dnsmsg.MXData{Preference: uint16(10 * (j + 1)), Host: mx}}); err != nil {
				return nil, err
			}
			if !mxSeen[mx] {
				mxSeen[mx] = true
				if err := addA(zoneOf(mx), mx, mxIP(mx)); err != nil {
					return nil, err
				}
			}
		}
		if d.Record == "" {
			continue
		}
		if err := add(tld, dnsmsg.RR{Name: "_mta-sts." + d.Name, Type: dnsmsg.TypeTXT, Data: dnsmsg.NewTXT(d.Record)}); err != nil {
			return nil, err
		}
		polHost := mtasts.PolicyHost(d.Name)
		ip := "127.0.0.1"
		if d.Fault == "policy_tcp" {
			ip = closedAddr
		}
		t := &policysrv.Tenant{Domain: d.Name, Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.Mode(d.Mode), MaxAge: int64(d.MaxAge), MXPatterns: d.Patterns,
		}}
		switch d.Fault {
		case "policy_tls_name":
			t.CertMode = policysrv.CertWrongName
		case "policy_tls_selfsigned":
			t.CertMode = policysrv.CertSelfSigned
		case "policy_tls_expired":
			t.CertMode = policysrv.CertExpired
		case "policy_tls_missing":
			t.CertMode = policysrv.CertMissing
		case "policy_http":
			t.HTTPMode = policysrv.HTTPNotFound
		case "policy_syntax":
			t.HTTPMode = policysrv.HTTPGarbage
		}
		pol.AddTenant(t)
		tenantHosts = append(tenantHosts, polHost)
		switch {
		case d.PolicyProvider >= 0:
			pz := fmt.Sprintf("pp%d.test", d.PolicyProvider)
			target := label(d.Name) + "." + pz
			if err := add(tld, dnsmsg.RR{Name: polHost, Type: dnsmsg.TypeCNAME, Data: dnsmsg.CNAMEData{Target: target}}); err != nil {
				return nil, err
			}
			if err := addA(pz, target, ip); err != nil {
				return nil, err
			}
			if err := pol.AddAlias(d.Name, target); err != nil {
				return nil, err
			}
		case d.Fault != "policy_dns":
			if err := addA(tld, polHost, ip); err != nil {
				return nil, err
			}
		}
	}

	lw.dns = dnsserver.New(nil)
	for _, z := range zones {
		lw.dns.AddZone(z)
	}
	dnsAddr, err := lw.dns.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lw.ep.DNS = dnsAddr.String()
	polAddr, err := pol.Start("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, lw.close())
	}
	lw.ep.HTTPSPort = pol.Port()
	if err := lw.startSMTP(ca, now); err != nil {
		return nil, errors.Join(err, lw.close())
	}
	// Issue every policy-host certificate now: policysrv issues lazily
	// on the first handshake for a name, which must not land inside a
	// timed window.
	prewarm(polAddr.String(), tenantHosts)
	return lw, nil
}

func mxIP(host string) string {
	z := zoneOf(host)
	for _, m := range mxZones {
		if m.zone == z {
			return m.ip
		}
	}
	return "127.0.0.1"
}

// startSMTP starts one listener per MX zone on a shared port, each
// presenting the certificate that realises its zone's verdict.
func (lw *liveWorld) startSMTP(ca *pki.CA, now time.Time) error {
	issue := func(opts pki.IssueOptions) (*tls.Certificate, error) {
		opts.Now = now
		leaf, err := ca.Issue(opts)
		if err != nil {
			return nil, err
		}
		c := leaf.TLSCertificate()
		return &c, nil
	}
	good, err := issue(pki.IssueOptions{Names: []string{"*." + zoneGoodMX}})
	if err != nil {
		return err
	}
	self, err := issue(pki.IssueOptions{Names: []string{"*." + zoneSelfSignedMX}, SelfSigned: true})
	if err != nil {
		return err
	}
	expired, err := issue(pki.IssueOptions{Names: []string{"*." + zoneExpiredMX},
		NotBefore: now.Add(-100 * 24 * time.Hour), NotAfter: now.Add(-10 * 24 * time.Hour)})
	if err != nil {
		return err
	}
	wrong, err := issue(pki.IssueOptions{Names: []string{"*.other.test"}})
	if err != nil {
		return err
	}
	behaviors := map[string]smtpd.Behavior{
		zoneGoodMX:       {Hostname: "mx." + zoneGoodMX, Certificate: good, AcceptMail: true},
		zoneSelfSignedMX: {Hostname: "mx." + zoneSelfSignedMX, Certificate: self, AcceptMail: true},
		zoneExpiredMX:    {Hostname: "mx." + zoneExpiredMX, Certificate: expired, AcceptMail: true},
		zoneNameMX:       {Hostname: "mx." + zoneNameMX, Certificate: wrong, AcceptMail: true},
		zoneNoTLSMX:      {Hostname: "mx." + zoneNoTLSMX, DisableSTARTTLS: true, AcceptMail: true},
	}
	// The first listener picks a free port; the others must get the
	// same one on their own addresses. Retry if one is taken.
	for attempt := 0; attempt < 20; attempt++ {
		var started []*smtpd.Server
		port := "0"
		var err error
		for _, m := range mxZones {
			s := smtpd.New(behaviors[m.zone])
			var addr net.Addr
			addr, err = s.Start(net.JoinHostPort(m.ip, port))
			if err != nil {
				break
			}
			started = append(started, s)
			if port == "0" {
				_, port, _ = net.SplitHostPort(addr.String())
			}
		}
		if err == nil {
			lw.smtp = started
			lw.ep.SMTPPort, _ = strconv.Atoi(port)
			return nil
		}
		for _, s := range started {
			_ = s.Close() // a listener we abandon before use
		}
	}
	return fmt.Errorf("no common SMTP port free on the MX listener addresses")
}

// prewarm performs one TLS handshake per policy host name so the policy
// server issues and caches each certificate.
func prewarm(addr string, hosts []string) {
	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range work {
				conn, err := tls.DialWithDialer(&net.Dialer{Timeout: 5 * time.Second}, "tcp", addr,
					&tls.Config{ServerName: h, InsecureSkipVerify: true})
				if err == nil {
					_ = conn.Close() // only the server-side issuance mattered
				}
			}
		}()
	}
	for _, h := range hosts {
		work <- h
	}
	close(work)
	wg.Wait()
}
