//! Sinatra-style route patterns: path segments with `:param` captures. The
//! route table itself is `SafeWebApp`'s.

use std::collections::BTreeMap;

/// A parsed route pattern, e.g. `/records/:mid/details`.
#[derive(Debug)]
pub(crate) struct RoutePattern {
    segments: Vec<Segment>,
}

#[derive(Debug)]
enum Segment {
    Literal(String),
    Param(String),
}

impl RoutePattern {
    /// Parses a pattern. Segments starting with `:` capture one path
    /// segment.
    pub(crate) fn parse(pattern: &str) -> RoutePattern {
        let segments = parts(pattern)
            .map(|s| match s.strip_prefix(':') {
                Some(name) => Segment::Param(name.to_string()),
                None => Segment::Literal(s.to_string()),
            })
            .collect();
        RoutePattern { segments }
    }

    /// Whether a concrete path matches: as many segments, each literal
    /// equal. Copies nothing.
    pub(crate) fn matches(&self, path: &str) -> bool {
        let mut parts = parts(path);
        let all = self.segments.iter().all(|seg| match (seg, parts.next()) {
            (_, None) => false,
            (Segment::Literal(lit), Some(part)) => lit == part,
            (Segment::Param(_), Some(_)) => true,
        });
        all && parts.next().is_none()
    }

    /// The URL-decoded parameters a path that [`RoutePattern::matches`]
    /// captures.
    pub(crate) fn params(&self, path: &str) -> BTreeMap<String, String> {
        self.segments
            .iter()
            .zip(parts(path))
            .filter_map(|(seg, part)| match seg {
                Segment::Param(name) => Some((name.clone(), safeweb_http::url_decode(part))),
                Segment::Literal(_) => None,
            })
            .collect()
    }
}

/// A path's non-empty segments (a trailing slash is tolerated).
fn parts(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_routes() {
        let p = RoutePattern::parse("/records/all");
        assert!(p.matches("/records/all"));
        assert!(!p.matches("/records"));
        assert!(!p.matches("/records/all/more"));
        // Trailing slash tolerated.
        assert!(p.matches("/records/all/"));
    }

    #[test]
    fn param_capture() {
        let p = RoutePattern::parse("/records/:mid");
        assert!(p.matches("/records/addenbrookes"));
        let params = p.params("/records/addenbrookes");
        assert_eq!(params.get("mid").map(String::as_str), Some("addenbrookes"));
        assert!(!p.matches("/records"));
    }

    #[test]
    fn multiple_params() {
        let p = RoutePattern::parse("/mdt/:mid/patient/:pid");
        assert!(p.matches("/mdt/a/patient/42"));
        let params = p.params("/mdt/a/patient/42");
        assert_eq!(params.get("mid").map(String::as_str), Some("a"));
        assert_eq!(params.get("pid").map(String::as_str), Some("42"));
    }

    #[test]
    fn params_are_url_decoded() {
        let p = RoutePattern::parse("/records/:mid");
        assert!(p.matches("/records/st+mary%27s"));
        let params = p.params("/records/st+mary%27s");
        assert_eq!(params.get("mid").map(String::as_str), Some("st mary's"));
    }
}
