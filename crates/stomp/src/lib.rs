//! # safeweb-stomp
//!
//! A STOMP (Streaming Text Oriented Message Protocol) implementation: the
//! wire protocol of SafeWeb's event broker (§4.2 of the paper, refs
//! [23, 24]). The paper modified an existing Ruby StompServer; this crate
//! reimplements the protocol surface SafeWeb needs:
//!
//! * [`Frame`]s with commands `CONNECT`/`SEND`/`SUBSCRIBE`/`MESSAGE`/...
//! * an incremental, size-bounded [`codec`] with header escaping and
//!   `content-length` support,
//! * a blocking [`TcpTransport`] that sends and receives whole frames.
//!
//! Label and selector semantics live one layer up in `safeweb-broker`; this
//! crate is purely the protocol substrate.
//!
//! ```
//! use safeweb_stomp::{Command, Frame, codec};
//!
//! let frame = Frame::new(Command::Send)
//!     .with_header("destination", "/patient_report")
//!     .with_body("payload");
//! let bytes = codec::encode(&frame);
//! let mut decoder = codec::Decoder::new();
//! decoder.feed(&bytes);
//! let back = decoder.next_frame()?.expect("complete frame");
//! assert_eq!(back.header("destination"), Some("/patient_report"));
//! # Ok::<(), safeweb_stomp::codec::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
mod frame;
mod transport;

pub use frame::{Command, Frame};
pub use transport::TcpTransport;
