//! STOMP client used by event-processing units to talk to a networked
//! broker (the paper's client side used the EventMachine-based Ruby STOMP
//! client; here it is a thin blocking wrapper over [`TcpTransport`]).

use std::fmt;
use std::io;
use std::time::Duration;

use safeweb_events::LabelledEvent;
use safeweb_stomp::{Command, Frame, TcpTransport};

use crate::wire::{self, event_to_frame, SELECTOR_HEADER, SUBSCRIPTION_HEADER};

/// Error from client operations.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The broker sent an `ERROR` frame; contains its `message` header.
    Broker(String),
    /// The broker closed the connection.
    Disconnected,
    /// A received frame was not convertible to an event.
    BadFrame(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Broker(m) => write!(f, "broker error: {m}"),
            ClientError::Disconnected => write!(f, "broker disconnected"),
            ClientError::BadFrame(m) => write!(f, "bad frame from broker: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A delivery received from the broker.
#[derive(Debug, Clone)]
pub struct ClientDelivery {
    /// The subscription id the event matched.
    pub subscription_id: String,
    /// The labelled event.
    pub event: LabelledEvent,
}

/// A blocking STOMP event client.
#[derive(Debug)]
pub struct EventClient {
    transport: TcpTransport,
    session: String,
    next_sub_id: u64,
}

impl EventClient {
    /// Connects and logs in as `login` (a unit name from the policy file).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on connection failure or if the broker
    /// rejects the session.
    pub fn connect(addr: &str, login: &str) -> Result<EventClient, ClientError> {
        let mut transport = TcpTransport::connect(addr)?;
        transport.send_frame(&Frame::new(Command::Connect).with_header("login", login))?;
        match transport.recv_frame()? {
            Some(f) if f.command() == Command::Connected => {
                let session = f.header("session").unwrap_or_default().to_string();
                Ok(EventClient {
                    transport,
                    session,
                    next_sub_id: 1,
                })
            }
            Some(f) if f.command() == Command::Error => Err(ClientError::Broker(
                f.header("message").unwrap_or("unknown").to_string(),
            )),
            Some(f) => Err(ClientError::BadFrame(format!(
                "expected CONNECTED, got {}",
                f.command()
            ))),
            None => Err(ClientError::Disconnected),
        }
    }

    /// The broker-assigned session identifier.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Subscribes to `topic`, optionally with a selector; returns the
    /// subscription id.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure.
    pub fn subscribe(
        &mut self,
        topic: &str,
        selector: Option<&str>,
    ) -> Result<String, ClientError> {
        let id = self.next_sub_id.to_string();
        self.next_sub_id += 1;
        let mut frame = Frame::new(Command::Subscribe)
            .with_header("destination", topic)
            .with_header("id", &id);
        if let Some(sel) = selector {
            frame.push_header(SELECTOR_HEADER, sel);
        }
        self.transport.send_frame(&frame)?;
        Ok(id)
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure.
    pub fn unsubscribe(&mut self, subscription_id: &str) -> Result<(), ClientError> {
        self.transport
            .send_frame(&Frame::new(Command::Unsubscribe).with_header("id", subscription_id))?;
        Ok(())
    }

    /// Publishes a labelled event.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure.
    pub fn publish(&mut self, event: &LabelledEvent) -> Result<(), ClientError> {
        self.transport
            .send_frame(&event_to_frame(event, Command::Send))?;
        Ok(())
    }

    /// Blocks until the next delivery arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Disconnected`] on EOF, [`ClientError::Broker`]
    /// if the broker reports an error, or transport errors.
    pub fn next_delivery(&mut self) -> Result<ClientDelivery, ClientError> {
        loop {
            match self.transport.recv_frame()? {
                None => return Err(ClientError::Disconnected),
                Some(f) => match f.command() {
                    Command::Message => {
                        let subscription_id =
                            f.header(SUBSCRIPTION_HEADER).unwrap_or("0").to_string();
                        // The broker admitted these labels at their SEND.
                        let (event, _) =
                            wire::frame_to_event_within(f, wire::WIRE_INTERN_CAP, |_| Ok(()))
                                .map_err(|e| ClientError::BadFrame(e.to_string()))?;
                        return Ok(ClientDelivery {
                            subscription_id,
                            event,
                        });
                    }
                    Command::Error => {
                        return Err(ClientError::Broker(
                            f.header("message").unwrap_or("unknown").to_string(),
                        ))
                    }
                    Command::Receipt => continue,
                    other => {
                        return Err(ClientError::BadFrame(format!("unexpected {other}")));
                    }
                },
            }
        }
    }

    /// Like [`EventClient::next_delivery`] but gives up after `timeout`,
    /// returning `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Same as [`EventClient::next_delivery`] for non-timeout failures.
    pub fn next_delivery_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<ClientDelivery>, ClientError> {
        self.transport.set_read_timeout(Some(timeout))?;
        let result = match self.next_delivery() {
            Ok(d) => Ok(Some(d)),
            Err(ClientError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        self.transport.set_read_timeout(None)?;
        result
    }

    /// Sends `DISCONNECT` and drops the connection.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] if the frame cannot be sent.
    pub fn disconnect(mut self) -> Result<(), ClientError> {
        self.transport
            .send_frame(&Frame::new(Command::Disconnect))?;
        Ok(())
    }
}
