package httpd

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vfscore"
)

// ConnFDs returns the descriptors of the listed connections in the order
// step walks them, and whether a connection marked closed is still listed.
func (s *Server) ConnFDs() (fds []uint64, closedListed bool) {
	for _, c := range s.conns {
		fds = append(fds, c.fd)
		closedListed = closedListed || c.closed
	}
	return fds, closedListed
}

// AddConnFD lists a bare connection under fd, as accept would.
func (s *Server) AddConnFD(fd uint64) { s.addConn(&conn{fd: fd}) }

// DropConnFD drops the connection listed under fd twice over, the second
// time as a close that faulted half way would.
func (s *Server) DropConnFD(fd uint64) {
	if i, ok := s.connIndex(fd); ok {
		c := s.conns[i]
		s.dropConn(c)
		s.dropConn(c)
	}
}

// CloseConnFD closes the connection listed under fd from NGINX's context.
func (s *Server) CloseConnFD(e *cubicle.Env, fd uint64) {
	if i, ok := s.connIndex(fd); ok {
		s.closeConn(e, s.conns[i])
	}
}

// VFS returns the server's VFSCORE client.
func (s *Server) VFS() *vfscore.Client { return s.vfs }

// ScanHead is scanHead.
func ScanHead(head []byte) (method, path []byte, http11, keepAlive bool) { return scanHead(head) }

// LogLine is appendLogLine for a request of the given outcome.
func LogLine(sec uint64, path string, status int, size uint64) []byte {
	return appendLogLine(nil, sec, &conn{path: []byte(path), status: status, size: size})
}
