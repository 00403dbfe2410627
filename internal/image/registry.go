package image

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
)

// Registry serves a Store over HTTP using the OCI distribution API subset
// FROM pulls need:
//
//	GET /v2/                              — ping
//	GET /v2/<name>/manifests/<tag>       — image manifest (JSON)
//	GET /v2/<name>/blobs/<digest>        — layer or config blob
//
// It listens on a loopback port, so the simulated "fetch https://…" lines
// of Figure 1a correspond to real HTTP requests inside the process.
type Registry struct {
	store *Store
	srv   *http.Server
	ln    net.Listener
}

// manifest is the wire format.
type manifest struct {
	SchemaVersion int       `json:"schemaVersion"`
	Config        descRef   `json:"config"`
	Layers        []descRef `json:"layers"`
}

type descRef struct {
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// NewRegistry wraps a store; call Start to serve.
func NewRegistry(store *Store) *Registry {
	return &Registry{store: store}
}

// Start begins serving on 127.0.0.1:0 and returns the base URL.
func (r *Registry) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/", r.handle)
	r.srv = &http.Server{Handler: mux}
	go r.srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Close stops the server.
func (r *Registry) Close() error {
	if r.srv != nil {
		return r.srv.Close()
	}
	return nil
}

func (r *Registry) handle(w http.ResponseWriter, req *http.Request) {
	path := strings.TrimPrefix(req.URL.Path, "/v2/")
	if path == "" {
		w.WriteHeader(http.StatusOK)
		return
	}
	// <name>/manifests/<tag> or <name>/blobs/<digest>
	if i := strings.Index(path, "/manifests/"); i >= 0 {
		name, tag := path[:i], path[i+len("/manifests/"):]
		switch req.Method {
		case http.MethodGet:
			r.serveManifest(w, req, name, tag)
		case http.MethodPut:
			r.acceptManifest(w, req, name, tag)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
		return
	}
	if i := strings.Index(path, "/blobs/"); i >= 0 {
		digest := path[i+len("/blobs/"):]
		switch req.Method {
		case http.MethodGet:
			// blobView, not Blob: the bytes go straight to the wire, so
			// the hot serve path skips the defensive copy.
			blob, ok := r.store.blobView(digest)
			if !ok {
				http.Error(w, "blob unknown", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(blob)
		case http.MethodHead:
			if !r.store.hasBlob(digest) {
				http.Error(w, "blob unknown", http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusOK)
		case http.MethodPut:
			data, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if Digest(data) != digest {
				http.Error(w, "digest mismatch", http.StatusBadRequest)
				return
			}
			r.store.putBlob(digest, data)
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
		return
	}
	http.Error(w, "unsupported", http.StatusNotFound)
}

// acceptManifest implements the push side: the manifest's blobs must
// already be present (pushed first, as the distribution protocol requires).
func (r *Registry) acceptManifest(w http.ResponseWriter, req *http.Request, name, tag string) {
	var m manifest
	if err := json.NewDecoder(req.Body).Decode(&m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfgBlob, ok := r.store.Blob(m.Config.Digest)
	if !ok {
		http.Error(w, "config blob missing", http.StatusBadRequest)
		return
	}
	img := &Image{Name: name + ":" + tag}
	if err := json.Unmarshal(cfgBlob, &img.Config); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, l := range m.Layers {
		data, ok := r.store.Blob(l.Digest)
		if !ok {
			http.Error(w, "layer blob missing: "+l.Digest, http.StatusBadRequest)
			return
		}
		img.Layers = append(img.Layers, Layer{Digest: l.Digest, Data: data})
	}
	r.store.PutContext(req.Context(), img)
	w.WriteHeader(http.StatusCreated)
}

func (r *Registry) serveManifest(w http.ResponseWriter, req *http.Request, name, tag string) {
	img, ok := r.store.GetContext(req.Context(), name+":"+tag)
	if !ok {
		http.Error(w, "manifest unknown", http.StatusNotFound)
		return
	}
	cfgBytes, err := json.Marshal(img.Config)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cfgDigest := Digest(cfgBytes)
	r.store.putBlob(cfgDigest, cfgBytes)
	m := manifest{SchemaVersion: 2, Config: descRef{Digest: cfgDigest, Size: len(cfgBytes)}}
	for _, l := range img.Layers {
		m.Layers = append(m.Layers, descRef{Digest: l.Digest, Size: len(l.Data)})
	}
	w.Header().Set("Content-Type", "application/vnd.oci.image.manifest.v1+json")
	json.NewEncoder(w).Encode(m)
}

// Push uploads an image to a registry: blobs first, then the manifest, as
// the distribution protocol requires. Ownership in pushed layers is
// whatever the builder committed (normalized to container-root view).
func Push(baseURL string, img *Image) error {
	name, tag := SplitRef(img.Name)
	put := func(url string, body []byte, contentType string) error {
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		}
		return nil
	}
	cfgBytes, err := json.Marshal(img.Config)
	if err != nil {
		return err
	}
	cfgDigest := Digest(cfgBytes)
	if err := put(fmt.Sprintf("%s/v2/%s/blobs/%s", baseURL, name, cfgDigest),
		cfgBytes, "application/octet-stream"); err != nil {
		return fmt.Errorf("image: push %s: config: %w", img.Name, err)
	}
	m := manifest{SchemaVersion: 2, Config: descRef{Digest: cfgDigest, Size: len(cfgBytes)}}
	for _, l := range img.Layers {
		if err := put(fmt.Sprintf("%s/v2/%s/blobs/%s", baseURL, name, l.Digest),
			l.Data, "application/octet-stream"); err != nil {
			return fmt.Errorf("image: push %s: layer: %w", img.Name, err)
		}
		m.Layers = append(m.Layers, descRef{Digest: l.Digest, Size: len(l.Data)})
	}
	mBytes, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := put(fmt.Sprintf("%s/v2/%s/manifests/%s", baseURL, name, tag),
		mBytes, "application/vnd.oci.image.manifest.v1+json"); err != nil {
		return fmt.Errorf("image: push %s: manifest: %w", img.Name, err)
	}
	return nil
}

// Pull fetches name:tag from a registry base URL into an Image, verifying
// every blob digest — the client side of FROM.
func Pull(baseURL, ref string) (*Image, error) {
	name, tag := SplitRef(ref)
	resp, err := http.Get(fmt.Sprintf("%s/v2/%s/manifests/%s", baseURL, name, tag))
	if err != nil {
		return nil, fmt.Errorf("image: pull %s: %w", ref, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("image: pull %s: manifest HTTP %d", ref, resp.StatusCode)
	}
	var m manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("image: pull %s: manifest: %w", ref, err)
	}
	fetch := func(digest string) ([]byte, error) {
		br, err := http.Get(fmt.Sprintf("%s/v2/%s/blobs/%s", baseURL, name, digest))
		if err != nil {
			return nil, err
		}
		defer br.Body.Close()
		if br.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("blob %s: HTTP %d", digest, br.StatusCode)
		}
		data, err := io.ReadAll(br.Body)
		if err != nil {
			return nil, err
		}
		if Digest(data) != digest {
			return nil, fmt.Errorf("blob %s: digest mismatch", digest)
		}
		return data, nil
	}
	img := &Image{Name: ref}
	cfgBytes, err := fetch(m.Config.Digest)
	if err != nil {
		return nil, fmt.Errorf("image: pull %s: config: %w", ref, err)
	}
	if err := json.Unmarshal(cfgBytes, &img.Config); err != nil {
		return nil, fmt.Errorf("image: pull %s: config: %w", ref, err)
	}
	for _, l := range m.Layers {
		data, err := fetch(l.Digest)
		if err != nil {
			return nil, fmt.Errorf("image: pull %s: %w", ref, err)
		}
		img.Layers = append(img.Layers, Layer{Digest: l.Digest, Data: data})
	}
	return img, nil
}
