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
    /// `*` — matches the rest of the path (including `/`).
    Splat,
}

impl RoutePattern {
    /// Parses a pattern. Segments starting with `:` capture one path
    /// segment; a final `*` captures the rest as `splat`.
    pub(crate) fn parse(pattern: &str) -> RoutePattern {
        let segments = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix(':') {
                    Segment::Param(name.to_string())
                } else if s == "*" {
                    Segment::Splat
                } else {
                    Segment::Literal(s.to_string())
                }
            })
            .collect();
        RoutePattern { segments }
    }

    /// Attempts to match a concrete path, returning captured parameters.
    pub(crate) fn matches(&self, path: &str) -> Option<BTreeMap<String, String>> {
        let parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut params = BTreeMap::new();
        let mut i = 0;
        for seg in &self.segments {
            match seg {
                Segment::Literal(lit) => {
                    if parts.get(i) != Some(&lit.as_str()) {
                        return None;
                    }
                    i += 1;
                }
                Segment::Param(name) => {
                    let part = parts.get(i)?;
                    params.insert(name.clone(), safeweb_http::url_decode(part));
                    i += 1;
                }
                Segment::Splat => {
                    params.insert("splat".to_string(), parts[i..].join("/"));
                    i = parts.len();
                }
            }
        }
        if i == parts.len() {
            Some(params)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_routes() {
        let p = RoutePattern::parse("/records/all");
        assert!(p.matches("/records/all").is_some());
        assert!(p.matches("/records").is_none());
        assert!(p.matches("/records/all/more").is_none());
        // Trailing slash tolerated.
        assert!(p.matches("/records/all/").is_some());
    }

    #[test]
    fn param_capture() {
        let p = RoutePattern::parse("/records/:mid");
        let params = p.matches("/records/addenbrookes").unwrap();
        assert_eq!(params.get("mid").map(String::as_str), Some("addenbrookes"));
        assert!(p.matches("/records").is_none());
    }

    #[test]
    fn multiple_params() {
        let p = RoutePattern::parse("/mdt/:mid/patient/:pid");
        let params = p.matches("/mdt/a/patient/42").unwrap();
        assert_eq!(params.get("mid").map(String::as_str), Some("a"));
        assert_eq!(params.get("pid").map(String::as_str), Some("42"));
    }

    #[test]
    fn params_are_url_decoded() {
        let p = RoutePattern::parse("/records/:mid");
        let params = p.matches("/records/st+mary%27s").unwrap();
        assert_eq!(params.get("mid").map(String::as_str), Some("st mary's"));
    }

    #[test]
    fn splat_captures_rest() {
        let p = RoutePattern::parse("/static/*");
        let params = p.matches("/static/css/site.css").unwrap();
        assert_eq!(
            params.get("splat").map(String::as_str),
            Some("css/site.css")
        );
    }
}
