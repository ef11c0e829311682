package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
)

const (
	testUsers = 50
	testItems = 120
	testK     = 8
)

func newTestServer(t *testing.T) (*server, *mf.Factors, *httptest.Server) {
	t.Helper()
	model := mf.NewFactorsInit(testUsers, testItems, testK, 3.5, sparse.NewRand(3))
	svc, err := recommend.NewService(model, testUsers, testItems, recommend.ServiceConfig{MaxN: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := newServer(svc, obs.NewObserver(0, nil), 8)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, model, ts
}

func getTopN(t *testing.T, base string, user, n int) topNResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/topn?user=%d&n=%d", base, user, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out topNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTopNSingleMatchesReference(t *testing.T) {
	_, model, ts := newTestServer(t)
	ref, err := recommend.New(model, testUsers, testItems)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 7, testUsers - 1} {
		out := getTopN(t, ts.URL, u, 10)
		want, err := ref.TopN(int32(u), 10)
		if err != nil {
			t.Fatal(err)
		}
		if out.User != int32(u) || out.Generation != 1 || len(out.Items) != len(want) {
			t.Fatalf("user %d: %+v", u, out)
		}
		for i := range want {
			if out.Items[i] != want[i] {
				t.Fatalf("user %d rank %d: got %+v want %+v", u, i, out.Items[i], want[i])
			}
		}
	}
}

func TestTopNBatchMatchesSingles(t *testing.T) {
	_, _, ts := newTestServer(t)
	users := []int32{4, 0, 31}
	body, _ := json.Marshal(batchRequest{Users: users, N: 5})
	resp, err := http.Post(ts.URL+"/topn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(users) {
		t.Fatalf("results: %+v", out)
	}
	for i, u := range users {
		single := getTopN(t, ts.URL, int(u), 5)
		if out.Results[i].User != u || len(out.Results[i].Items) != 5 {
			t.Fatalf("row %d: %+v", i, out.Results[i])
		}
		for j := range single.Items {
			if out.Results[i].Items[j] != single.Items[j] {
				t.Fatalf("user %d rank %d: batch %+v single %+v",
					u, j, out.Results[i].Items[j], single.Items[j])
			}
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"missing user", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn")
		}, http.StatusBadRequest},
		{"user out of range", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn?user=999")
		}, http.StatusBadRequest},
		{"n over cap", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn?user=0&n=21")
		}, http.StatusBadRequest},
		{"empty batch", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json", strings.NewReader(`{"users":[]}`))
		}, http.StatusBadRequest},
		{"batch over cap", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json",
				strings.NewReader(`{"users":[0,1,2,3,4,5,6,7,8],"n":5}`))
		}, http.StatusBadRequest},
		{"batch user out of range", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json",
				strings.NewReader(`{"users":[0,999],"n":5}`))
		}, http.StatusBadRequest},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/topn", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"reload without body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{}`))
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
	// The batch-user error names the offender.
	resp, err := http.Post(ts.URL+"/topn", "application/json",
		strings.NewReader(`{"users":[0,999],"n":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(msg.String(), "user 999") {
		t.Fatalf("batch error %q does not name the user", msg.String())
	}
}

func TestReloadSwapsModelAtomically(t *testing.T) {
	srv, model, ts := newTestServer(t)
	before := getTopN(t, ts.URL, 2, 5)

	doubled := model.Clone()
	for i := range doubled.P {
		doubled.P[i] *= 2
	}
	srv.loadModel = func(path string) (*mf.Factors, error) {
		if path != "new.bin" {
			return nil, fmt.Errorf("unexpected path %q", path)
		}
		return doubled, nil
	}
	resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{"model":"new.bin"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rl reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rl.Generation != 2 {
		t.Fatalf("generation = %d, want 2", rl.Generation)
	}

	after := getTopN(t, ts.URL, 2, 5)
	if after.Generation != 2 {
		t.Fatalf("post-reload generation = %d", after.Generation)
	}
	// Doubling P doubles every score; the ranking is unchanged.
	for i := range before.Items {
		if after.Items[i].ID != before.Items[i].ID {
			t.Fatalf("rank %d: id %d -> %d", i, before.Items[i].ID, after.Items[i].ID)
		}
		if after.Items[i].Score <= before.Items[i].Score {
			t.Fatalf("rank %d: score did not grow: %v -> %v",
				i, before.Items[i].Score, after.Items[i].Score)
		}
	}

	// A model of different shape is rejected and the generation holds.
	srv.loadModel = func(string) (*mf.Factors, error) {
		return mf.NewFactorsInit(3, 3, 2, 3.5, sparse.NewRand(1)), nil
	}
	resp, err = http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{"model":"new.bin"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("dim-mismatch reload status %d, want 409", resp.StatusCode)
	}
	if g := getTopN(t, ts.URL, 2, 5).Generation; g != 2 {
		t.Fatalf("generation moved to %d after failed reload", g)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, _, ts := newTestServer(t)
	getTopN(t, ts.URL, 0, 5) // generate one sample

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "generation=1") {
		t.Fatalf("healthz: %q", body.String())
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	// The text format pads columns; compare with collapsed whitespace.
	flat := strings.Join(strings.Fields(body.String()), " ")
	for _, want := range []string{"serve/requests_total 1", "serve/users_scored_total 1", "serve/request_seconds count 1"} {
		if !strings.Contains(flat, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body.String())
		}
	}
}

func TestLoadServeModel(t *testing.T) {
	if _, err := loadServeModel("", "", 1); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadServeModel("a", "1x1x1", 1); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := loadServeModel("", "abc", 1); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, err := loadServeModel("", "0x5x5", 1); err == nil {
		t.Fatal("zero dim accepted")
	}
	m, err := loadServeModel("", "12x9x4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.M != 12 || m.N != 9 || m.K != 4 {
		t.Fatalf("shape %dx%dx%d", m.M, m.N, m.K)
	}
	// Same seed, same factors: the synthetic model is reproducible.
	m2, _ := loadServeModel("", "12x9x4", 7)
	for i := range m.P {
		if m.P[i] != m2.P[i] {
			t.Fatal("synthetic model not seeded")
		}
	}
}

// TestTopNGenerationNamesScoringModel runs single and batch queries while
// reloads swap models underneath them, and requires every response's
// items to be exactly what the model of its reported generation ranks.
// Each reload installs a differently scaled model, so no two generations
// share a score. Run it under -race.
func TestTopNGenerationNamesScoringModel(t *testing.T) {
	srv, model, ts := newTestServer(t)
	const reloads, n = 120, 5
	models := []*mf.Factors{model} // models[g-1] is generation g
	for r := 1; r <= reloads; r++ {
		m := model.Clone()
		for i := range m.P {
			m.P[i] *= 1 + float32(r)/64
		}
		models = append(models, m)
	}
	srv.loadModel = func(path string) (*mf.Factors, error) {
		var r int
		if _, err := fmt.Sscanf(path, "m%d", &r); err != nil || r < 1 || r > reloads {
			return nil, fmt.Errorf("unexpected path %q", path)
		}
		return models[r], nil
	}

	type seen struct {
		user  int32
		gen   int64
		items []recommend.Item
	}
	results := make([][]seen, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				u := int32((g*17 + iter*7) % testUsers)
				if g == 0 {
					resp, err := http.Get(fmt.Sprintf("%s/topn?user=%d&n=%d", ts.URL, u, n))
					if err != nil {
						t.Error(err)
						return
					}
					var out topNResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], seen{out.User, out.Generation, out.Items})
					continue
				}
				body, _ := json.Marshal(batchRequest{Users: []int32{u, (u + 1) % testUsers, u}, N: n})
				resp, err := http.Post(ts.URL+"/topn", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out batchResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range out.Results {
					if row.Generation != out.Generation {
						t.Errorf("batch row generation %d, response %d", row.Generation, out.Generation)
					}
					results[g] = append(results[g], seen{row.User, out.Generation, row.Items})
				}
			}
		}(g)
	}
	for r := 1; r <= reloads; r++ {
		resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(fmt.Sprintf(`{"model":"m%d"}`, r)))
		if err != nil {
			t.Fatal(err)
		}
		var rl reloadResponse
		err = json.NewDecoder(resp.Body).Decode(&rl)
		resp.Body.Close()
		if err != nil || rl.Generation != int64(r+1) {
			t.Fatalf("reload %d: generation %d, err %v", r, rl.Generation, err)
		}
	}
	close(stop)
	wg.Wait()

	refs := make([]*recommend.Recommender, len(models))
	for g, m := range models {
		ref, err := recommend.New(m, testUsers, testItems)
		if err != nil {
			t.Fatal(err)
		}
		refs[g] = ref
	}
	checked := 0
	for _, rs := range results {
		for _, r := range rs {
			if r.gen < 1 || int(r.gen) > len(models) {
				t.Fatalf("user %d: generation %d out of range", r.user, r.gen)
			}
			want, err := refs[r.gen-1].TopN(r.user, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.items) != len(want) {
				t.Fatalf("user %d generation %d: %v, model of that generation ranks %v", r.user, r.gen, r.items, want)
			}
			for i := range want {
				if r.items[i] != want[i] {
					t.Fatalf("user %d generation %d: %v, model of that generation ranks %v", r.user, r.gen, r.items, want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no responses checked")
	}
}
