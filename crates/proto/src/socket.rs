//! Framed I/O over real byte streams.
//!
//! [`read_frame`] and [`write_frame`] move one versioned
//! [`crate::framing`] frame over any byte stream (TCP, Unix domain
//! sockets); [`DeadlineStream`] bounds a blocking read in wall-clock
//! time, surfacing an overrun as [`TransportError::Timeout`]. The
//! service daemon and client speak through these.

use crate::error::TransportError;
use crate::framing::{Frame, HEADER_LEN};
use std::io::{Read, Write};
use std::time::Duration;

/// A byte stream with a settable read deadline — the capability a
/// blocking socket reader needs to bound its wait for the next frame.
pub trait DeadlineStream: Read + Write {
    /// Sets the read timeout for subsequent reads (`None` blocks
    /// indefinitely).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure as [`TransportError`].
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> Result<(), TransportError>;
}

impl DeadlineStream for std::net::TcpStream {
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        std::net::TcpStream::set_read_timeout(self, timeout).map_err(TransportError::from)
    }
}

#[cfg(unix)]
impl DeadlineStream for std::os::unix::net::UnixStream {
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
            .map_err(TransportError::from)
    }
}

/// Reads exactly one frame from `stream`: a 12-byte header (validated
/// before any payload byte is read) followed by the declared payload.
///
/// # Errors
///
/// Header/payload decode errors from [`crate::framing`], plus
/// [`TransportError::Timeout`] / [`TransportError::Closed`] from the
/// stream itself.
pub fn read_frame<S: Read>(stream: &mut S) -> Result<Frame, TransportError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let (kind, len) = Frame::parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Frame::decode_payload(kind, &payload)
}

/// Writes one frame to `stream` and flushes it.
///
/// # Errors
///
/// Frame-encode errors plus stream I/O errors, as [`TransportError`].
pub fn write_frame<S: Write>(stream: &mut S, frame: &Frame) -> Result<(), TransportError> {
    let bytes = frame.encode()?;
    stream.write_all(&bytes)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn recv_deadline_times_out() {
        // Nothing in flight and a small wall-clock budget: the read
        // surfaces as a typed timeout, not a hang or an I/O error.
        let (mut a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.set_read_deadline(Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(read_frame(&mut a).unwrap_err(), TransportError::Timeout);
    }
}
