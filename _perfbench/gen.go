package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

// Sizes fixes how much input one workload generates. Scale 1 is the
// benchmark; the self-tests run a small fraction of it.
type Sizes struct {
	CensusDomains  int // domains per census week
	CensusShare    float64
	ComponentPool  int // distinct MTA-STS domains the component world hosts
	JobSize        int // domains per service job
	PriorJobs      int // completed jobs already in the service store
	SenderDomains  int // recipient domains
	SenderHistory  int // messages sent before the template's cache was saved
	SenderMessages int // queued messages (an upper bound on one run)
	CacheRefreshes int // policy-cache Store calls in the template
}

func sizesFor(scale float64) Sizes {
	n := func(v int, min int) int {
		s := int(math.Round(float64(v) * scale))
		if s < min {
			return min
		}
		return s
	}
	return Sizes{
		CensusDomains:  n(8192, 200),
		CensusShare:    0.001, // Table 1: ~68k of 87M domains publish MTA-STS
		ComponentPool:  n(2400, 120),
		JobSize:        n(48, 12),
		PriorJobs:      n(16, 2),
		SenderDomains:  n(6000, 300),
		SenderHistory:  n(10000, 500),
		SenderMessages: n(100000, 400),
		CacheRefreshes: n(20000, 1000),
	}
}

// Domain is one generated domain: what the world serves for it and the
// verdict a correct scan must reach.
type Domain struct {
	Name     string   `json:"name"`
	MX       []string `json:"mx"`
	Record   string   `json:"record,omitempty"` // TXT at _mta-sts; empty means NXDOMAIN
	RecordID string   `json:"record_id,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
	MaxAge   int      `json:"max_age,omitempty"`
	// PolicyProvider is the third-party policy host the domain's
	// mta-sts name CNAMEs to; -1 means self-hosted.
	PolicyProvider int    `json:"policy_provider"`
	Fault          string `json:"fault,omitempty"`

	Expect campaign.DomainRecord `json:"expect"`
	// Sender-side expectation: the mechanism that must gate delivery.
	SendMechanism string `json:"send_mechanism,omitempty"`
	// Cached marks sender recipients whose policy the cache template
	// already holds; the rest of the policy domains are first contact.
	Cached bool `json:"cached,omitempty"`
}

// World is everything generated from one (workload, seed) pair.
type World struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Sizes    Sizes    `json:"sizes"`
	Domains  []Domain `json:"domains"`
	// Messages are recipient domain indices in queue order (sender).
	Messages []int `json:"messages,omitempty"`
}

// MX host zones. Each zone is served by its own SMTP listener on a
// distinct loopback address (all sharing one port), so a host's name
// alone decides the certificate it presents.
const (
	zoneGoodMX       = "mxhost.test"
	zoneSelfSignedMX = "mx-ss.test"
	zoneExpiredMX    = "mx-exp.test"
	zoneNameMX       = "mx-nm.test"
	zoneNoTLSMX      = "mx-nt.test"
	tldBuckets       = 32
)

// mxProviderWeights is simnet's third-party mail-hosting mix (§6.1:
// Google and Outlook dominate), heaviest first: Google, Outlook, Zoho,
// Yahoo, Mail.com, MXroute. Provider p serves p<p>a and p<p>b in
// zoneGoodMX.
var mxProviderWeights = []float64{0.42, 0.28, 0.09, 0.08, 0.07, 0.06}

// policyProviderWeights is simnet's Table 2 customer mix among
// third-party policy hosts: Tutanota, DMARCReport, PowerDMARC,
// EasyDMARC, Mailhardener, URIports, Sendmarc, OnDMARC, and the long
// tail as one host.
var policyProviderWeights = []float64{0.266, 0.255, 0.131, 0.078, 0.054, 0.038, 0.028, 0.016, 0.134}

// modeWeights is simnet's policy-mode mix: enforce, testing, none.
var modeWeights = []float64{0.20, 0.70, 0.10}

// trancoAdoption is the Figure 3 curve, as simnet models it: the
// fraction of domains in 10K-rank bin b (0..99) of the Tranco top
// million that publish MTA-STS, from 1.2% at the top to 0.4%.
func trancoAdoption(bin int) float64 {
	return (0.4 + 0.8*math.Pow(1-float64(bin)/float64(simnet.TrancoBins-1), 1.7)) / 100
}

// mxZones maps each MX zone to its listener address.
var mxZones = []struct{ zone, ip string }{
	{zoneGoodMX, "127.0.0.1"},
	{zoneSelfSignedMX, "127.0.0.2"},
	{zoneExpiredMX, "127.0.0.3"},
	{zoneNameMX, "127.0.0.4"},
	{zoneNoTLSMX, "127.0.0.5"},
}

// closedAddr hosts nothing on the policy port: a policy host resolving
// here fails at the TCP stage.
const closedAddr = "127.0.0.9"

func zoneOf(host string) string {
	_, z, _ := strings.Cut(host, ".")
	return z
}

// gen draws one world. The workload name salts the seed, so the three
// workloads get unrelated worlds from the same --seed.
type gen struct {
	r     *rand.Rand
	seq   int
	names map[string]bool
}

func newGen(workload string, seed int64) *gen {
	salt := int64(0)
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	return &gen{
		r:     rand.New(rand.NewSource(seed*7919 + salt)),
		names: make(map[string]bool),
	}
}

func (g *gen) name() string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for {
		g.seq++
		b := make([]byte, 4+g.r.Intn(7))
		for i := range b {
			b[i] = letters[g.r.Intn(len(letters))]
		}
		n := fmt.Sprintf("%s%d.t%02d", b, g.seq, g.r.Intn(tldBuckets))
		if !g.names[n] {
			g.names[n] = true
			return n
		}
	}
}

func label(domain string) string { return strings.ReplaceAll(domain, ".", "-") }

// mxSet draws the domain's MX hosts: a shared provider pair
// (third-party, §4.5's 63%) or one self-hosted MX.
func (g *gen) mxSet(name string) (hosts []string, third bool) {
	if g.r.Float64() < simnet.MXThirdFrac {
		return providerMX(g.pick(mxProviderWeights...)), true
	}
	return []string{label(name) + "." + zoneGoodMX}, false
}

func providerMX(p int) []string {
	return []string{fmt.Sprintf("p%da.%s", p, zoneGoodMX), fmt.Sprintf("p%db.%s", p, zoneGoodMX)}
}

func (g *gen) pick(weights ...float64) int {
	x := g.r.Float64()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x *= total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// stsDomain generates one MTA-STS domain with at most one planted
// misconfiguration, drawn from simnet.LatestRates (§4.3–§4.5).
func (g *gen) stsDomain(allowFaults bool) Domain {
	lr := simnet.LatestRates
	d := Domain{Name: g.name(), PolicyProvider: -1, MaxAge: 604800}
	mx, mxThird := g.mxSet(d.Name)
	d.MX = mx
	polThird := g.r.Float64() < simnet.PolicyThirdFrac
	if polThird {
		d.PolicyProvider = g.pick(policyProviderWeights...)
	}
	d.RecordID = fmt.Sprintf("2024%06d", g.r.Intn(1000000))
	d.Record = "v=STSv1; id=" + d.RecordID + ";"
	d.Mode = []string{"enforce", "testing", "none"}[g.pick(modeWeights...)]
	d.Patterns = append([]string(nil), mx...)

	if allowFaults {
		polRate, mxRate := lr.PolicySelf, lr.MXSelf
		if polThird {
			polRate = lr.PolicyThird
		}
		if mxThird {
			mxRate = lr.MXThird
		}
		switch x := g.r.Float64(); {
		case x < lr.Record:
			d.Fault = []string{"record_no_id", "record_bad_id", "record_bad_version", "record_bad_ext"}[g.pick(lr.RecordNoID, lr.RecordBadID, lr.RecordBadVersion, lr.RecordBadExt)]
		case g.r.Float64() < polRate:
			if polThird {
				d.Fault = []string{"policy_tcp", "policy_tls", "policy_http", "policy_syntax"}[g.pick(lr.ThirdStageTCP, lr.ThirdStageTLS, lr.ThirdStageHTTP, lr.ThirdStageSyntax)]
				if d.Fault == "policy_tls" {
					d.Fault = []string{"policy_tls_missing", "policy_tls_expired", "policy_tls_selfsigned"}[g.pick(lr.ThirdTLSMissing, lr.ThirdTLSExpired, lr.ThirdTLSSelfSigned)]
				}
			} else {
				d.Fault = []string{"policy_dns", "policy_tcp", "policy_tls", "policy_http", "policy_syntax"}[g.pick(lr.SelfStageDNS, lr.SelfStageTCP, lr.SelfStageTLS, lr.SelfStageHTTP, lr.SelfStageSyntax)]
				if d.Fault == "policy_tls" {
					d.Fault = []string{"policy_tls_name", "policy_tls_selfsigned", "policy_tls_expired"}[g.pick(lr.SelfTLSNameMismatch, lr.SelfTLSSelfSigned, lr.SelfTLSExpired)]
				}
			}
		case g.r.Float64() < mxRate:
			zone := []string{zoneNameMX, zoneSelfSignedMX, zoneExpiredMX}[g.pick(lr.MXNameMismatch, lr.MXSelfSigned, lr.MXExpired)]
			d.Fault = "mx_" + zone
			bad := label(d.Name) + "." + zone
			if g.r.Float64() < lr.AllInvalidFrac {
				d.MX = []string{bad}
			} else {
				d.MX = []string{label(d.Name) + "." + zoneGoodMX, bad}
			}
			d.Patterns = append([]string(nil), d.MX...)
		case g.r.Float64() < 0.005:
			// MXes without STARTTLS are excluded from certificate
			// analysis (the paper's footnote 4): no verdict code.
			d.Fault = "mx_no_starttls"
			d.MX = []string{label(d.Name) + "." + zoneNoTLSMX}
			d.Patterns = append([]string(nil), d.MX...)
		case g.r.Float64() < lr.MismatchSelf:
			d.Fault = "mismatch"
			if d.Mode == "none" {
				d.Mode = "enforce"
			}
			d.Patterns = []string{fmt.Sprintf("mail.legacy%d.example", g.r.Intn(1000))}
		}
	}
	switch d.Fault {
	case "record_no_id":
		d.Record = "v=STSv1;"
	case "record_bad_id":
		d.Record = "v=STSv1; id=bad-id!;"
	case "record_bad_version":
		d.Record = "v=STSv2; id=" + d.RecordID + ";"
	case "record_bad_ext":
		d.Record = "v=STSv1; id=" + d.RecordID + "; ext=bad value;"
	}
	d.Expect = expectScan(d)
	return d
}

// plainDomain has MX records but no MTA-STS record.
func (g *gen) plainDomain() Domain {
	d := Domain{Name: g.name(), PolicyProvider: -1}
	d.MX, _ = g.mxSet(d.Name)
	d.Expect = expectScan(d)
	return d
}

// expectScan is the ground-truth verdict for a generated domain, as the
// campaign layer stores it: written from the world's construction, not
// from the scanner's code.
func expectScan(d Domain) campaign.DomainRecord {
	rec := campaign.DomainRecord{Domain: d.Name, MXHosts: len(d.MX)}
	if d.Record == "" {
		return rec
	}
	rec.Present = true
	codes := map[string]bool{}
	var cats [4]bool // dns_record, policy, mx_cert, inconsistency
	switch d.Fault {
	case "record_no_id", "record_bad_id", "record_bad_ext":
		codes["bad_syntax"], cats[0] = true, true
	case "record_bad_version":
		codes["bad_version"], cats[0] = true, true
	default:
		rec.Valid = true
	}
	stage := map[string]string{
		"policy_dns": "dns", "policy_tcp": "tcp", "policy_tls_name": "tls",
		"policy_tls_selfsigned": "tls", "policy_tls_expired": "tls", "policy_tls_missing": "tls",
		"policy_http": "http", "policy_syntax": "syntax",
	}[d.Fault]
	// An unusable record does not stop the scanner from fetching the
	// policy, so its outcome depends only on the policy host.
	rec.PolicyOK = stage == ""
	if rec.PolicyOK {
		rec.Mode = d.Mode
	} else if rec.Valid {
		rec.Stage = stage
		codes[map[string]string{"dns": "dns_lookup", "tcp": "tcp_connect", "tls": "tls_handshake", "http": "http_status", "syntax": "parse"}[stage]] = true
		cats[1] = true
	}
	invalid, usable := 0, 0
	for _, mx := range d.MX {
		switch zoneOf(mx) {
		case zoneSelfSignedMX:
			codes["self_signed"] = true
			invalid++
		case zoneExpiredMX:
			codes["expired"] = true
			invalid++
		case zoneNameMX:
			codes["name_mismatch"] = true
			invalid++
		case zoneGoodMX:
			usable++
		}
	}
	if invalid > 0 {
		cats[2] = true
	}
	rec.MXInvalid = invalid
	if rec.PolicyOK && d.Fault == "mismatch" {
		rec.Mismatch = "Domain"
		codes["inconsistency"], cats[3] = true, true
	}
	if rec.PolicyOK && d.Mode == "enforce" {
		probed := invalid + usable
		rec.DeliveryFailure = d.Fault == "mismatch" || (probed > 0 && usable == 0)
	}
	for c := range codes {
		rec.Codes = append(rec.Codes, c)
	}
	sort.Strings(rec.Codes)
	for i, k := range []string{"dns_record", "policy", "mx_cert", "inconsistency"} {
		if cats[i] {
			rec.Categories = append(rec.Categories, k)
		}
	}
	return rec
}

// generate builds the world for one workload and seed.
func generate(workload string, seed int64, sz Sizes) (*World, error) {
	g := newGen(workload, seed)
	w := &World{Workload: workload, Seed: seed, Sizes: sz}
	switch workload {
	case "census":
		n := sz.CensusDomains
		withRecord := int(math.Ceil(float64(n) * sz.CensusShare))
		at := map[int]bool{}
		for len(at) < withRecord {
			at[g.r.Intn(n)] = true
		}
		for i := 0; i < n; i++ {
			if at[i] {
				w.Domains = append(w.Domains, g.stsDomain(true))
			} else {
				w.Domains = append(w.Domains, g.plainDomain())
			}
		}
	case "component":
		for i := 0; i < sz.ComponentPool; i++ {
			w.Domains = append(w.Domains, g.stsDomain(true))
		}
	case "sender":
		w.Domains, w.Messages = g.senderWorld(sz)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return w, nil
}

// senderWorld draws the recipient domains in popularity order and the
// message queue. The head is one mailbox domain per provider of the
// simnet mail-hosting mix, each publishing an enforce policy. The tail
// stands for the Tranco top million, its domains spaced evenly over the
// ranks; each publishes MTA-STS with the Figure 3 probability of its
// rank bin, in simnet's mode mix. Message volume follows Zipf's law
// (exponent 1) over the popularity order. The template's cache holds
// the policies that the SenderHistory messages before the queue
// reached; a recipient with a policy outside that set is a first
// contact when the queue first reaches it.
func (g *gen) senderWorld(sz Sizes) ([]Domain, []int) {
	head := len(mxProviderWeights)
	tail := sz.SenderDomains - head
	domains := make([]Domain, 0, sz.SenderDomains)
	for p := 0; p < head; p++ {
		d := g.stsDomain(false)
		d.MX, d.Patterns, d.Mode = providerMX(p), providerMX(p), "enforce"
		domains = append(domains, d)
	}
	for i := 0; i < tail; i++ {
		bin := i * simnet.TrancoBins / tail
		if g.r.Float64() < trancoAdoption(bin) {
			domains = append(domains, g.stsDomain(false))
		} else {
			domains = append(domains, g.plainDomain())
		}
	}
	for i := range domains {
		d := &domains[i]
		d.Expect = expectScan(*d)
		d.SendMechanism = "opportunistic"
		if d.Record != "" && d.Mode != "none" {
			d.SendMechanism = "mta-sts"
		}
	}
	cum := make([]float64, len(domains))
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	draw := func() int {
		return min(sort.SearchFloat64s(cum, g.r.Float64()*total), len(cum)-1)
	}
	for k := 0; k < sz.SenderHistory; k++ {
		domains[draw()].Cached = true
	}
	for i := range domains {
		domains[i].Cached = domains[i].Cached && domains[i].Record != ""
	}
	msgs := make([]int, sz.SenderMessages)
	for i := range msgs {
		msgs[i] = draw()
	}
	return domains, msgs
}

// sendClass is a message's recipient policy state when the queue
// reaches it: no record, a policy the cache already holds, or a first
// contact, whose policy is fetched and stored.
func sendClass(w *World, seen map[int]bool, i int) string {
	k := w.Messages[i]
	d := &w.Domains[k]
	switch {
	case d.Record == "":
		return "no_policy"
	case d.Cached || seen[k]:
		return "cached"
	}
	seen[k] = true
	return "first_contact"
}
