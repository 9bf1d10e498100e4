package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/tpcw"
)

// searchWords are common title words, so searches return rows.
var searchWords = []string{
	"THE", "SECRET", "LOST", "GOLDEN", "RIVER", "CITY", "HISTORY",
	"SCIENCE", "JOURNEY", "NIGHT", "GUIDE", "WORLD",
}

// Session is one client's request stream: it draws pages from the mix
// with a seeded generator and carries the customer and cart ids from
// page to page, like the repository's emulated browsers. The targets it
// produces depend only on the seed and on the responses it is shown.
type Session struct {
	mix   *tpcw.Mix
	rng   *rand.Rand
	items int
	custs int
	cID   int
	scID  int
}

// NewSession seeds client k's stream from the run seed.
func NewSession(w *Workload, seed int64, k int) *Session {
	s := &Session{
		mix:   tpcw.NewMix(w.Mix),
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(k)*7919 + 1)),
		items: Population.Items,
		custs: Population.Customers,
	}
	s.cID = 1 + s.rng.Intn(s.custs)
	return s
}

// Next draws the next interaction's page and request target.
func (s *Session) Next() (page, target string) {
	page = s.mix.Pick(s.rng)
	q := map[string]string{}
	switch page {
	case tpcw.PageHome:
		q["c_id"] = strconv.Itoa(s.cID)
	case tpcw.PageProductDetail, tpcw.PageAdminRequest:
		q["i_id"] = strconv.Itoa(1 + s.rng.Intn(s.items))
	case tpcw.PageAdminResponse:
		q["i_id"] = strconv.Itoa(1 + s.rng.Intn(s.items))
		q["cost"] = fmt.Sprintf("%d.99", 1+s.rng.Intn(99))
	case tpcw.PageNewProducts, tpcw.PageBestSellers:
		q["subject"] = tpcw.Subjects[s.rng.Intn(len(tpcw.Subjects))]
	case tpcw.PageExecuteSearch:
		q["field"] = []string{"title", "author", "subject"}[s.rng.Intn(3)]
		if q["field"] == "subject" {
			q["terms"] = tpcw.Subjects[s.rng.Intn(len(tpcw.Subjects))]
		} else {
			q["terms"] = searchWords[s.rng.Intn(len(searchWords))]
		}
	case tpcw.PageShoppingCart:
		q["i_id"] = strconv.Itoa(1 + s.rng.Intn(s.items))
		q["qty"] = strconv.Itoa(1 + s.rng.Intn(3))
		s.cartParams(q)
	case tpcw.PageCustomerReg, tpcw.PageBuyConfirm:
		s.cartParams(q)
	case tpcw.PageBuyRequest, tpcw.PageOrderDisplay:
		if page == tpcw.PageBuyRequest {
			s.cartParams(q)
		}
		q["uname"] = tpcw.Uname(s.cID)
		q["passwd"] = "pw" + strconv.Itoa(s.cID)
	}
	if len(q) == 0 {
		return page, page
	}
	return page, page + "?" + httpwire.EncodeQuery(q)
}

// cartParams adds the customer and cart ids of the cart flow; the
// customer id also pins the flow to the customer's shard.
func (s *Session) cartParams(q map[string]string) {
	q["c_id"] = strconv.Itoa(s.cID)
	if s.scID > 0 {
		q["sc_id"] = strconv.Itoa(s.scID)
	}
}

// Observe updates the session from a page's response body: a cart page
// sets the cart id; a purchase ends the session, and the next one
// belongs to a newly drawn customer.
func (s *Session) Observe(page string, body []byte) {
	switch page {
	case tpcw.PageShoppingCart:
		if id := IntAfter(body, "sc_id="); id > 0 {
			s.scID = id
		}
	case tpcw.PageBuyConfirm:
		s.scID = 0
		s.cID = 1 + s.rng.Intn(s.custs)
	}
}

// Customer reports the session's current customer id.
func (s *Session) Customer() int { return s.cID }

// IntAfter parses the decimal digits that follow the first occurrence
// of marker in body; 0 when absent.
func IntAfter(body []byte, marker string) int {
	str := string(body)
	i := strings.Index(str, marker)
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range []byte(str[i+len(marker):]) {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Images lists the distinct image paths a page embeds, in order, at
// most limit of them.
func Images(body []byte, limit int) []string {
	const marker = `src="`
	var out []string
	seen := map[string]bool{}
	s := string(body)
	for len(out) < limit {
		i := strings.Index(s, marker)
		if i < 0 {
			break
		}
		s = s[i+len(marker):]
		j := strings.IndexByte(s, '"')
		if j < 0 {
			break
		}
		img := s[:j]
		s = s[j:]
		if img != "" && !seen[img] {
			seen[img] = true
			out = append(out, img)
		}
	}
	return out
}

// Arrivals draws the open-loop phase's Poisson arrival offsets, in
// seconds from the phase start, for the given rate and length.
func Arrivals(seed int64, rate, seconds float64) []float64 {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	var out []float64
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
