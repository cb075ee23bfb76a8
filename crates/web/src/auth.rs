//! Authentication against the web database (§4.4 step 1, §5.1: "user
//! accounts and their label privileges are stored in the web database").
//!
//! Password verification uses a deliberately expensive iterated hash; HTTP
//! basic authentication re-verifies on every request, which is why auth
//! dominates the paper's frontend latency breakdown (87 ms of 180 ms,
//! Figure 5). The iteration count is configurable so the benchmark harness
//! can calibrate the same profile.

use safeweb_labels::{Privilege, PrivilegeSet};
use safeweb_relstore::{ColumnDef, ColumnType, Database, Row, Schema};

/// Authentication configuration.
#[derive(Debug, Clone, Copy)]
pub struct AuthConfig {
    /// Iterations of the password hash. Higher = slower = more resistant
    /// to brute force. The default is calibrated to take on the order of
    /// tens of milliseconds, mirroring the paper's profile.
    pub hash_iterations: u32,
}

impl Default for AuthConfig {
    fn default() -> AuthConfig {
        AuthConfig {
            hash_iterations: 2_000_000,
        }
    }
}

/// The user/privilege store backed by the web database.
#[derive(Debug, Clone)]
pub struct UserStore {
    db: Database,
    config: AuthConfig,
}

/// An authenticated user: name plus the privileges fetched from the web
/// database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthenticatedUser {
    /// The username.
    pub username: String,
    /// The user's label privileges.
    pub privileges: PrivilegeSet,
    /// Whether the user is an application administrator (used by the MDT
    /// portal's privilege-assignment pages, which are part of the audited
    /// codebase).
    pub is_admin: bool,
}

impl UserStore {
    /// Creates the user tables in `db` (idempotent) and returns the store.
    pub fn new(db: Database, config: AuthConfig) -> UserStore {
        // Ignore TableExists: the schema is fixed.
        let _ = db.create_table(
            "users",
            Schema::new(
                vec![
                    ColumnDef::new("username", ColumnType::Text),
                    ColumnDef::new("password_hash", ColumnType::Text),
                    ColumnDef::new("privileges", ColumnType::Text),
                    ColumnDef::new("is_admin", ColumnType::Bool),
                ],
                "username",
            ),
        );
        UserStore { db, config }
    }

    /// The underlying web database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Creates a user with the given password and privileges.
    ///
    /// # Errors
    ///
    /// Returns an error string for duplicate usernames or storage failures.
    pub fn create_user(
        &self,
        username: &str,
        password: &str,
        privileges: &PrivilegeSet,
        is_admin: bool,
    ) -> Result<(), String> {
        let hash = hash_password(username, password, self.config.hash_iterations);
        let wire = privileges_to_wire(privileges);
        self.db
            .insert(
                "users",
                vec![username.into(), hash.into(), wire.into(), is_admin.into()],
            )
            .map_err(|e| e.to_string())
    }

    /// Fetches a user's `users` row by exact (case-sensitive) username.
    pub fn lookup(&self, username: &str) -> Option<Row> {
        self.db.get("users", &username.into()).ok().flatten()
    }

    /// Verifies credentials (slow by design) and fetches privileges:
    /// [`UserStore::lookup`] then [`UserStore::verify_row`]. Returns
    /// `None` on unknown user or wrong password.
    pub fn authenticate(&self, username: &str, password: &str) -> Option<AuthenticatedUser> {
        self.verify_row(&self.lookup(username)?, password)
    }

    /// Verifies a password against an already-fetched `users` row (the
    /// frontend middleware fetches and verifies in separate, separately
    /// timed phases — privilege fetching vs. authentication in Figure 5).
    pub fn verify_row(&self, row: &Row, password: &str) -> Option<AuthenticatedUser> {
        let stored_name = row.text("username")?.to_string();
        let expected = row.text("password_hash")?;
        // The hash is salted with the *stored* username.
        let got = hash_password(&stored_name, password, self.config.hash_iterations);
        if !constant_time_eq(expected.as_bytes(), got.as_bytes()) {
            return None;
        }
        Some(AuthenticatedUser {
            username: stored_name,
            privileges: wire_to_privileges(row.text("privileges").unwrap_or("")),
            is_admin: row.bool("is_admin").unwrap_or(false),
        })
    }
}

/// Serialises privileges for storage (`kind pattern` per line).
pub fn privileges_to_wire(privileges: &PrivilegeSet) -> String {
    privileges
        .iter()
        .map(|p| format!("{} {}", p.kind().keyword(), p.pattern()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parses stored privileges; malformed lines are dropped (fail-closed:
/// damage to the privileges column can only *reduce* access).
pub fn wire_to_privileges(wire: &str) -> PrivilegeSet {
    let mut set = PrivilegeSet::new();
    for line in wire.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((kind, pattern)) = line.split_once(' ') else {
            continue;
        };
        let (Ok(kind), Ok(pattern)) = (kind.parse(), pattern.trim().parse()) else {
            continue;
        };
        set.grant(Privilege::new(kind, pattern));
    }
    set
}

/// Iterated salted hash. Deliberately sequential (each round feeds the
/// next) so it cannot be vectorised away; FNV-based because the dependency
/// allow-list has no cryptographic hash. The *shape* (slow KDF-style
/// verification dominating request latency) is what the evaluation needs —
/// a production deployment would swap in bcrypt/argon2.
pub fn hash_password(username: &str, password: &str, iterations: u32) -> String {
    let mut state: u64 = 0xcbf29ce484222325;
    let salt = format!("safeweb${username}$");
    for b in salt.bytes().chain(password.bytes()) {
        state ^= b as u64;
        state = state.wrapping_mul(0x100000001b3);
    }
    for i in 0..iterations {
        state ^= i as u64;
        state = state.wrapping_mul(0x100000001b3);
        state = state.rotate_left(17);
    }
    format!("{state:016x}")
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::Label;

    fn store() -> UserStore {
        UserStore::new(
            Database::new("web"),
            AuthConfig {
                hash_iterations: 1000, // fast for tests
            },
        )
    }

    fn mdt_privs(name: &str) -> PrivilegeSet {
        let mut p = PrivilegeSet::new();
        p.grant(Privilege::clearance(Label::conf(
            "ecric.org.uk",
            &format!("mdt/{name}"),
        )));
        p
    }

    #[test]
    fn create_and_authenticate() {
        let store = store();
        store
            .create_user("mdt1", "secret", &mdt_privs("one"), false)
            .unwrap();
        let user = store.authenticate("mdt1", "secret").unwrap();
        assert_eq!(user.username, "mdt1");
        assert!(user
            .privileges
            .has_clearance(&Label::conf("ecric.org.uk", "mdt/one")));
        assert!(!user.is_admin);

        assert!(store.authenticate("mdt1", "wrong").is_none());
        assert!(store.authenticate("nobody", "secret").is_none());
    }

    #[test]
    fn duplicate_user_rejected() {
        let store = store();
        store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .unwrap();
        assert!(store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .is_err());
    }

    #[test]
    fn usernames_are_case_sensitive() {
        // The §5.2 "errors in access checks" study hinges on mdt1 vs MDT1
        // being distinct principals.
        let store = store();
        store
            .create_user("mdt1", "a", &mdt_privs("one"), false)
            .unwrap();
        store
            .create_user("MDT1", "b", &mdt_privs("two"), false)
            .unwrap();
        let lower = store.authenticate("mdt1", "a").unwrap();
        let upper = store.authenticate("MDT1", "b").unwrap();
        assert_ne!(lower.privileges, upper.privileges);
        assert!(store.authenticate("MDT1", "a").is_none());
    }

    #[test]
    fn privilege_wire_roundtrip() {
        let privs = mdt_privs("one");
        let wire = privileges_to_wire(&privs);
        assert_eq!(wire_to_privileges(&wire), privs);
        // Garbage lines are dropped, not granted.
        assert!(wire_to_privileges("nonsense\nclearance not-a-label").is_empty());
    }

    #[test]
    fn hash_depends_on_all_inputs() {
        let a = hash_password("u", "p", 1000);
        assert_ne!(a, hash_password("u", "q", 1000));
        assert_ne!(a, hash_password("v", "p", 1000));
        assert_ne!(a, hash_password("u", "p", 1001));
        assert_eq!(a, hash_password("u", "p", 1000));
    }
}
