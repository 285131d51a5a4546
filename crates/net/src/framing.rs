//! Newline-delimited framing shared by every wire endpoint.
//!
//! The daemon and the router speak the same line protocol: one JSON request
//! per `\n`-terminated line, one JSON response per line. This module is the
//! single implementation of that framing — a capped blocking reader for
//! client-side round trips ([`read_one_line`]) and a capped nonblocking
//! accumulator for the event loop ([`FrameReader`]).
//!
//! Both readers enforce [`MAX_LINE_BYTES`]. The historical implementations
//! (one copy in the service, one drifted copy in the router) grew their
//! buffer without bound on a never-terminated line, so a single hostile
//! client writing an endless stream of non-newline bytes could OOM the
//! daemon. Here the cap is checked while the line is still being
//! accumulated: the reader reports [`LineRead::TooLong`] (or
//! [`FrameTooLong`]) as soon as the cap is crossed, before the
//! oversized frame is ever fully buffered.

use std::io::{BufRead, ErrorKind, Read};

/// Hard cap on one wire frame (one newline-terminated line), in bytes.
///
/// 16 MiB comfortably holds the largest legitimate frames (bulk
/// `migrate_in` session snapshots and event backlogs) while bounding the
/// memory a single connection can pin.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Outcome of one [`read_one_line`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// A full line (newline stripped, trailing `\r` stripped) is in the
    /// buffer.
    Line,
    /// The read timed out mid-line; partial data stays buffered — call
    /// again.
    WouldBlock,
    /// The peer closed the connection cleanly with no buffered partial
    /// line.
    Eof,
    /// The connection broke (reset, aborted, …).
    Failed,
    /// The line under accumulation crossed the byte cap. The buffer holds
    /// the truncated prefix; the connection should be answered with a
    /// typed `line_too_long` error and closed.
    TooLong,
}

/// Reads until `buf` holds one full line (newline stripped), never
/// buffering more than `max` bytes of it.
///
/// Partial data read before a timeout stays in `buf` across calls, so the
/// caller can poll a socket with a read timeout and retain progress. A
/// final unterminated line before EOF is returned as [`LineRead::Line`].
///
/// Unlike `BufRead::read_until`, the cap is enforced *during*
/// accumulation: the function consumes at most one internal buffer fill
/// past `max` before reporting [`LineRead::TooLong`], so a hostile
/// never-terminated line cannot grow `buf` without bound.
pub fn read_one_line<R: Read>(
    reader: &mut std::io::BufReader<R>,
    buf: &mut Vec<u8>,
    max: usize,
) -> LineRead {
    loop {
        if buf.len() > max {
            return LineRead::TooLong;
        }
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                };
            }
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return LineRead::WouldBlock;
            }
            Err(_) => return LineRead::Failed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return LineRead::Line;
            }
            None => {
                let take = chunk.len().min(max + 1 - buf.len());
                buf.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                // Loop: the cap check at the top fires if we just crossed
                // it, otherwise more data may follow.
            }
        }
    }
}

/// Why a [`FrameReader`] refused to produce a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The cap that was exceeded.
    pub limit: usize,
}

/// Alias kept for readability at `FrameReader::next_line` call sites.
pub type FrameError = FrameTooLong;

/// What one nonblocking [`FrameReader::fill`] pass observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// At least one byte arrived (complete lines may now be extractable).
    ReadSome,
    /// The socket has no data right now.
    WouldBlock,
    /// The peer closed its write side. Already-buffered complete lines are
    /// still extractable.
    Eof,
    /// The connection broke.
    Failed,
}

/// Capped accumulator turning nonblocking socket reads into complete
/// lines, for the `poll(2)` event loop.
///
/// Call [`fill`](Self::fill) when the socket polls readable, then drain
/// [`next_line`](Self::next_line) until it returns `Ok(None)`.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes already scanned for `\n` (resume point for the next scan).
    scanned: usize,
    max: usize,
    eof: bool,
}

impl FrameReader {
    /// A reader enforcing a `max`-byte frame cap.
    pub fn new(max: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            scanned: 0,
            max,
            eof: false,
        }
    }

    /// Whether the peer has closed its write side.
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// Bytes currently buffered awaiting a newline.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pulls whatever the nonblocking `reader` has, until it would block,
    /// hits EOF, or the buffer crosses the cap (the oversized condition is
    /// then reported by [`next_line`](Self::next_line)).
    pub fn fill<R: Read>(&mut self, reader: &mut R) -> FillStatus {
        let mut chunk = [0u8; 16 * 1024];
        let mut got_any = false;
        loop {
            if self.buf.len() > self.max {
                // Already oversized — stop pulling; next_line reports it.
                return FillStatus::ReadSome;
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return FillStatus::Eof;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got_any = true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return if got_any {
                        FillStatus::ReadSome
                    } else {
                        FillStatus::WouldBlock
                    };
                }
                Err(_) => return FillStatus::Failed,
            }
        }
    }

    /// Extracts the next complete line (newline and trailing `\r`
    /// stripped), or reports that the frame under accumulation crossed the
    /// cap.
    ///
    /// `Ok(None)` means no complete line is buffered yet.
    pub fn next_line(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let pos = self.scanned + rel;
                if pos > self.max {
                    return Err(FrameTooLong { limit: self.max });
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > self.max {
                    Err(FrameTooLong { limit: self.max })
                } else {
                    Ok(None)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn blocking_reader_splits_lines_and_strips_crlf() {
        let data: &[u8] = b"alpha\r\nbeta\ngamma";
        let mut reader = BufReader::new(data);
        let mut buf = Vec::new();
        assert_eq!(read_one_line(&mut reader, &mut buf, 1024), LineRead::Line);
        assert_eq!(buf, b"alpha");
        buf.clear();
        assert_eq!(read_one_line(&mut reader, &mut buf, 1024), LineRead::Line);
        assert_eq!(buf, b"beta");
        buf.clear();
        // Final unterminated line before EOF still counts as a line.
        assert_eq!(read_one_line(&mut reader, &mut buf, 1024), LineRead::Line);
        assert_eq!(buf, b"gamma");
        buf.clear();
        assert_eq!(read_one_line(&mut reader, &mut buf, 1024), LineRead::Eof);
    }

    #[test]
    fn blocking_reader_caps_unterminated_lines() {
        // 1 MiB of 'a' with no newline, cap at 4 KiB: the reader must stop
        // near the cap instead of buffering the whole stream.
        let data = vec![b'a'; 1024 * 1024];
        let mut reader = BufReader::new(&data[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_one_line(&mut reader, &mut buf, 4096),
            LineRead::TooLong
        );
        assert!(buf.len() <= 4096 + 1, "buffered {} bytes", buf.len());
    }

    #[test]
    fn blocking_reader_caps_terminated_line_that_is_too_long() {
        let mut data = vec![b'a'; 8192];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut reader = BufReader::new(&data[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_one_line(&mut reader, &mut buf, 4096),
            LineRead::TooLong
        );
    }

    #[test]
    fn blocking_reader_accepts_line_exactly_at_cap() {
        let mut data = vec![b'a'; 64];
        data.push(b'\n');
        let mut reader = BufReader::new(&data[..]);
        let mut buf = Vec::new();
        assert_eq!(read_one_line(&mut reader, &mut buf, 64), LineRead::Line);
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn frame_reader_extracts_pipelined_lines() {
        let mut fr = FrameReader::new(1024);
        let mut src: &[u8] = b"one\ntwo\r\nthree\n";
        assert_eq!(fr.fill(&mut src), FillStatus::Eof);
        assert_eq!(fr.next_line().unwrap().unwrap(), b"one");
        assert_eq!(fr.next_line().unwrap().unwrap(), b"two");
        assert_eq!(fr.next_line().unwrap().unwrap(), b"three");
        assert_eq!(fr.next_line().unwrap(), None);
        assert!(fr.at_eof());
    }

    #[test]
    fn frame_reader_handles_split_arrivals() {
        let mut fr = FrameReader::new(1024);
        let mut part: &[u8] = b"hel";
        fr.fill(&mut part);
        assert_eq!(fr.next_line().unwrap(), None);
        let mut rest: &[u8] = b"lo\nworld\n";
        fr.fill(&mut rest);
        assert_eq!(fr.next_line().unwrap().unwrap(), b"hello");
        assert_eq!(fr.next_line().unwrap().unwrap(), b"world");
    }

    #[test]
    fn frame_reader_flags_oversized_frames() {
        let mut fr = FrameReader::new(16);
        let data = [b'x'; 64];
        let mut src = &data[..];
        fr.fill(&mut src);
        assert_eq!(fr.next_line(), Err(FrameTooLong { limit: 16 }));
        // The buffer must stay near the cap even if more data arrives.
        let more = vec![b'x'; 1024 * 1024];
        let mut src = &more[..];
        fr.fill(&mut src);
        assert!(
            fr.buffered() <= 16 + 2 * 16 * 1024,
            "buffered {} bytes past the cap",
            fr.buffered()
        );
    }

    #[test]
    fn frame_reader_oversized_check_applies_to_complete_lines_too() {
        let mut fr = FrameReader::new(4);
        let mut src: &[u8] = b"toolong\n";
        fr.fill(&mut src);
        assert_eq!(fr.next_line(), Err(FrameTooLong { limit: 4 }));
    }

    #[test]
    #[ignore = "release-only: a 16 MiB document"]
    fn the_largest_frame_parses_and_prints_in_linear_time() {
        // One string member filling a whole frame is the worst line either
        // event loop will parse on its loop thread. Quadratic string
        // handling would take about half an hour on it.
        use crate::json::Json;
        use std::time::{Duration, Instant};
        let unit = "abcé↦\u{1F600}\\\"\\\\";
        assert_eq!(unit.len(), 16);
        let body = MAX_LINE_BYTES - 2;
        let text = format!(
            "\"{}{}\"",
            unit.repeat(body / unit.len()),
            "x".repeat(body % unit.len())
        );
        assert_eq!(text.len(), MAX_LINE_BYTES);

        let started = Instant::now();
        let doc = Json::parse(&text).expect("one valid string");
        let parse = started.elapsed();
        let started = Instant::now();
        let printed = doc.to_string();
        let print = started.elapsed();
        assert_eq!(printed, text);
        for (what, took) in [("parse", parse), ("print", print)] {
            assert!(
                took < Duration::from_secs(2),
                "{what} of a {MAX_LINE_BYTES} B frame took {took:?}"
            );
        }
    }
}
