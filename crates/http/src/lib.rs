//! # safeweb-http
//!
//! A minimal HTTP/1.1 server and client: the transport substrate under the
//! SafeWeb web frontend (§4.4). The paper serves the MDT portal from a
//! Sinatra application over HTTP basic authentication and TLS; this crate
//! provides the HTTP layer (TLS is out of scope per DESIGN.md §5 — the IFC
//! contribution is transport-agnostic), including:
//!
//! * a resumable, size-bounded request parser ([`RequestParser`], bounds
//!   [`MAX_HEAD`]/[`MAX_BODY`]),
//! * a keep-alive server ([`HttpServer`]) multiplexed over the shared
//!   `safeweb-reactor` epoll loop, its handlers run as per-connection
//!   `safeweb-sched` tasks — thread count is `1 + workers` regardless of
//!   connection count, and a panicking handler closes only its own
//!   connection,
//! * HTTP basic authentication helpers (with an in-tree Base64),
//! * a blocking client for tests and the benchmark harness.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod base64;
pub mod client;
mod message;
pub mod server;

pub use message::{
    url_decode, url_encode, Headers, Method, ParseError, Request, RequestParser, Response,
    MAX_BODY, MAX_HEAD,
};
pub use server::{Handler, HttpServer};
