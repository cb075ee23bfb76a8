//! # safeweb-web
//!
//! SafeWeb's web frontend (§4.4, Figure 3): a Sinatra-like framework whose
//! middleware enforces the information-flow policy on every HTTP
//! round-trip:
//!
//! 1. the request is **authenticated** (HTTP basic auth) and the user's
//!    **privileges fetched** from the web database,
//! 2. handlers query the application database through [`Ctx`], receiving
//!    **labelled** values ([`safeweb_taint::SValue`]),
//! 3. the application computes a response with labelled strings — aided by
//!    an ERB-like [`Template`] engine that propagates labels through
//!    rendering,
//! 4. before the response leaves, its **labels are checked against the
//!    user's privileges**; on violation the request is aborted with a
//!    content-free 403 (and the attempt counted).
//!
//! A second, independent net: responses still carrying the user-taint bit
//! (unsanitised user input) are aborted with a 500 — the XSS defence.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod app;
mod auth;
mod render_cache;
mod router;
mod template;

pub use app::{Ctx, FrontendOptions, FrontendStats, RouteHandler, SResponse, SafeWebApp};
pub use auth::{
    hash_password, privileges_to_wire, wire_to_privileges, AuthConfig, AuthenticatedUser, UserStore,
};
pub use router::{RoutePattern, Router};
pub use template::{SDoc, TContext, TValue, Template, TemplateError};
