"""Message types and per-round delivery for the synchronous simulator.

The paper's model is a synchronous message-passing network: in each round,
every process may transmit messages to other processes, receive the messages
transmitted to it in that round, and update its state.  An :class:`Envelope`
is one point-to-point transmission and a :class:`Broadcast` one message to
every process, the sender included.  The channel model is the standard one
for Byzantine agreement: the receiver learns the *authentic identity* of the
sender (oral-messages model), so a faulty process cannot spoof an honest
sender id, but it may send arbitrary payloads.

A broadcast stays one object from the sender to the receivers: the engine
collects a round's honest sends in a :class:`RoundTraffic`, which counts a
broadcast as ``n`` envelopes but indexes it once by tag, and each honest
process receives an :class:`Inbox` view that shares that index and adds the
process's own point-to-point and adversary envelopes.  Every reader sees
exactly the envelope sequence the expanded broadcasts would have produced:
honest sends in sender order (each sender's in the order it yielded them),
then the adversary's envelopes in the order it emitted them.

The protocols are all-to-all, so most recipients of a round read the same
messages under a tag.  :func:`reduce_by_tag` lets them share the read
itself: recipients whose views under the tag are the same -- the round's
honest broadcasts, then the same adversary messages, compared by sender
and body identity -- get the one result the round computed for that view,
instead of recounting the same bodies.  Ghosts (faulty processes running
the honest protocol, see :mod:`repro.adversary.ghost`) read through the
same :class:`Inbox` views, so they share reads too.

Payload convention
------------------
Every payload produced by the honest protocol implementations in this
library is a pair ``(tag, body)`` where ``tag`` is a tuple of hashables
identifying the (sub)protocol instance and its internal round (for example
``("ba", 2, "gc1", "r2")``).  Tagging lets sequentially and concurrently
composed sub-protocols share the network without confusing each other's
traffic, and lets the metrics layer attribute message counts to protocol
components.  Byzantine senders are of course free to send malformed
payloads; all protocol code treats inbound payloads as untrusted.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)


_MALFORMED: Tuple[Any, Any] = (None, None)


class _Tagged:
    """``(tag, body)`` accessors shared by :class:`Envelope` and
    :class:`Broadcast` (both carry a ``payload``)."""

    __slots__ = ()

    def parts(self) -> Tuple[Any, Any]:
        """The payload as a ``(tag, body)`` pair; ``(None, None)`` when
        malformed.  One structure check yields both halves, so bulk
        readers (:func:`by_tag`, :func:`by_tag_all`) parse each message
        exactly once; ``tag()``/``body()`` delegate here and cost one
        check per call (a frozen ``__slots__`` instance has nowhere to
        memoize)."""
        payload = self.payload  # type: ignore[attr-defined]
        if isinstance(payload, tuple) and len(payload) == 2:
            return payload
        return _MALFORMED

    def tag(self) -> Any:
        """Return the payload tag, or ``None`` for malformed payloads."""
        return self.parts()[0]

    def body(self) -> Any:
        """Return the payload body, or ``None`` for malformed payloads."""
        return self.parts()[1]


@dataclass(frozen=True, slots=True)
class Envelope(_Tagged):
    """A single point-to-point message transmission.

    Frozen with ``__slots__``: instances carry no dict, so attribute
    access stays on the fast path.

    Attributes:
        sender: id of the transmitting process (authenticated by the
            channel; the engine enforces that faulty processes only send
            under their own ids).
        recipient: id of the destination process.
        payload: arbitrary message content; honest protocols always use
            ``(tag, body)`` pairs.
    """

    sender: int
    recipient: int
    payload: Any

    def __init__(self, sender: int, recipient: int, payload: Any) -> None:
        _set_envelope_sender(self, sender)
        _set_envelope_recipient(self, recipient)
        _set_envelope_payload(self, payload)


@dataclass(frozen=True, slots=True)
class Broadcast(_Tagged):
    """One message to every process, the sender included.

    Counts as ``n`` envelopes, one per recipient ``0..n-1`` in that order,
    for delivery, accounting and the adversary's view alike; only honest
    processes send it (the adversary emits envelopes).
    """

    sender: int
    payload: Any

    def __init__(self, sender: int, payload: Any) -> None:
        _set_broadcast_sender(self, sender)
        _set_broadcast_payload(self, payload)


# The ``__init__`` methods above replace the generated ones, which assign
# each field through ``object.__setattr__`` (frozen instances refuse plain
# assignment): calling each slot's member descriptor directly stores the
# same values for a fraction of the cost.  Equality, hashing, ``repr``,
# ``dataclasses.replace`` and ``FrozenInstanceError`` are the dataclass's.
_set_envelope_sender = Envelope.sender.__set__  # type: ignore[attr-defined]
_set_envelope_recipient = Envelope.recipient.__set__  # type: ignore[attr-defined]
_set_envelope_payload = Envelope.payload.__set__  # type: ignore[attr-defined]
_set_broadcast_sender = Broadcast.sender.__set__  # type: ignore[attr-defined]
_set_broadcast_payload = Broadcast.payload.__set__  # type: ignore[attr-defined]


Send = Union[Broadcast, Envelope]
Pairs = List[Tuple[int, Any]]


class _Lazy(SequenceABC):
    """A sequence of envelopes that ``_build()`` makes on first access."""

    __slots__ = ("_items",)

    def _build(self) -> List[Envelope]:
        raise NotImplementedError

    def _envelopes(self) -> List[Envelope]:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return len(self._envelopes())

    def __getitem__(self, index: Any) -> Any:
        return self._envelopes()[index]

    def __iter__(self) -> Iterator[Envelope]:
        return iter(self._envelopes())


class RoundTraffic(_Lazy):
    """One round's honest sends, each broadcast held once.

    ``sends`` keeps every :class:`Broadcast` and point-to-point
    :class:`Envelope` in send order, and one sender's sends are contiguous
    (the engine adds each process's round at once, in pid order).  As a
    sequence the traffic is the round's envelopes with every broadcast
    replaced by its ``n`` envelopes, built on first access; ``len()`` is
    their count without building them.
    """

    def __init__(self, n: int) -> None:
        self._items = None
        self.n = n
        self.sends: List[Send] = []
        self.broadcasts = 0
        #: recipient -> its point-to-point envelopes, in send order.
        self.direct: Dict[int, List[Envelope]] = {}
        #: tag -> ``(pairs, first per sender)`` over the broadcasts;
        #: ``None`` until built or when a tag is unhashable.
        self._index: Optional[Dict[Any, Tuple[Pairs, Pairs]]] = None
        self._indexed = False
        #: ``(tag, reduce, args)``, plus the own pairs' identities when a
        #: view has them -> the shared result (see :meth:`reduced`).
        self._reduced: Dict[tuple, Any] = {}
        #: The own pairs every key above was built from, kept alive so
        #: that no ``id`` in a key is reused while the traffic lives.
        self._held: List[Sequence[Tuple[int, Any]]] = []

    def add(self, sends: Iterable[Send]) -> None:
        """Append one process's (validated) sends for this round."""
        for item in sends:
            if type(item) is Broadcast:
                self.broadcasts += 1
            else:
                self.direct.setdefault(item.recipient, []).append(item)
            self.sends.append(item)

    def __len__(self) -> int:
        return self.n * self.broadcasts + len(self.sends) - self.broadcasts

    def _build(self) -> List[Envelope]:
        return self.envelopes()

    def envelopes(self, recipients: Optional[Collection[int]] = None) -> List[Envelope]:
        """The expanded envelopes, optionally only those to ``recipients``,
        in send order (a broadcast's in recipient order)."""
        targets = range(self.n) if recipients is None else sorted(recipients)
        out: List[Envelope] = []
        for item in self.sends:
            if type(item) is Broadcast:
                sender, payload = item.sender, item.payload
                out.extend(Envelope(sender, j, payload) for j in targets)
            elif recipients is None or item.recipient in recipients:
                out.append(item)
        return out

    def addressed_to(self, recipients: Collection[int]) -> Sequence[Envelope]:
        """The envelopes to ``recipients`` (see :meth:`envelopes`), built on
        first access."""
        return _Addressed(self, recipients)

    def inbox(self, recipient: int, extra: Sequence[Envelope] = ()) -> "Inbox":
        """``recipient``'s delivery of this round with ``extra`` after the
        honest envelopes, indexed first if no delivery has indexed the
        round yet (one that no honest process listened to)."""
        self.index_tags()
        return Inbox(self, recipient, extra)

    def index_tags(self) -> None:
        """Build the round's tag index over the broadcasts, once; later
        calls do nothing.

        An unhashable broadcast tag leaves the round unindexed, and every
        :class:`Inbox` then scans its expanded envelopes instead.
        """
        if self._indexed:
            return
        self._indexed = True
        index: Dict[Any, Tuple[Pairs, Pairs]] = {}
        try:
            for item in self.sends:
                if type(item) is not Broadcast:
                    continue
                tag, body = item.parts()
                pair = (item.sender, body)
                entry = index.get(tag)
                if entry is None:
                    index[tag] = ([pair], [pair])
                    continue
                entry[0].append(pair)
                # Sends are contiguous per sender, so a sender already
                # seen under this tag is the last one recorded.
                if entry[1][-1][0] != item.sender:
                    entry[1].append(pair)
        except TypeError:
            return
        self._index = index

    def honest_pairs(self, tag: Any, recipient: int) -> Optional[Tuple[Pairs, Pairs]]:
        """``(sender, body)`` pairs with ``tag`` that ``recipient`` gets from
        honest processes, all of them and the first per sender; ``None``
        when the index cannot answer: an unhashable tag, or broadcasts and
        point-to-point envelopes under ``tag`` in one round, whose order
        only the expanded envelopes keep.  The lists may be shared across
        recipients: callers copy before handing them out."""
        if self._index is None:
            return None
        try:
            entry = self._index.get(tag, _EMPTY_ENTRY)
        except TypeError:
            return None
        direct = self.direct.get(recipient)
        if direct:
            pairs = _scan(direct, tag)
            if pairs:
                if entry[0]:
                    return None
                return pairs, _first_per_sender(pairs)
        return entry

    def reduced(self, tag: Any, reduce: Callable[..., Any], args: tuple,
                own: Sequence[Tuple[int, Any]] = ()) -> Any:
        """``reduce(first-per-sender broadcast pairs under tag + own,
        *args)``, computed once per round per ``(tag, reduce, args)`` and
        distinct ``own`` and shared; :data:`_UNSHARED` when the round is
        unindexed or ``tag`` or ``args`` is unhashable.

        ``own`` are a view's pairs beyond the broadcasts, which the caller
        dedupes per sender.  They are told apart by the identity of each
        sender and body, never by equality: ``1 == True``, yet a reducer
        may tell them apart.
        """
        index = self._index
        if index is None:
            return _UNSHARED
        if own:
            key: tuple = (tag, reduce, args,
                          tuple(map(id, chain.from_iterable(own))))
        else:
            key = (tag, reduce, args)
        try:
            return self._reduced[key]
        except KeyError:
            pass
        except TypeError:
            return _UNSHARED
        pairs = list(index.get(tag, _EMPTY_ENTRY)[1])
        if own:
            pairs.extend(own)
            self._held.append(own)
        result = reduce(pairs, *args)
        self._reduced[key] = result
        return result


#: :meth:`RoundTraffic.reduced`'s answer when it has no shared result.
_UNSHARED = object()

_EMPTY_ENTRY: Tuple[Pairs, Pairs] = ([], [])


class _Addressed(_Lazy):
    """The round's envelopes to ``recipients`` (see
    :meth:`RoundTraffic.envelopes`), then ``extra``, built on first access."""

    __slots__ = ("_traffic", "_recipients", "_extra")

    def __init__(self, traffic: RoundTraffic, recipients: Collection[int],
                 extra: Sequence[Envelope] = ()) -> None:
        self._items = None
        self._traffic = traffic
        self._recipients = recipients
        self._extra = extra

    def _build(self) -> List[Envelope]:
        return self._traffic.envelopes(self._recipients) + list(self._extra)


class Inbox(_Addressed):
    """What one process receives in one round.

    A view over the round's :class:`RoundTraffic` -- its broadcasts and
    tag index are shared by every recipient -- plus ``extra``: an honest
    recipient's adversary envelopes, or a ghost's ghost-to-ghost ones.
    As a sequence it is the recipient's envelopes in delivery order,
    built on first access; :meth:`by_tag` and :meth:`by_tag_all` answer
    from the index without building them.
    """

    __slots__ = ("recipient",)

    def __init__(self, traffic: RoundTraffic, recipient: int,
                 extra: Sequence[Envelope] = ()) -> None:
        self._items = None
        self._traffic = traffic
        self._recipients = (recipient,)
        self._extra = extra
        self.recipient = recipient

    def __len__(self) -> int:
        traffic = self._traffic
        return (traffic.broadcasts + len(traffic.direct.get(self.recipient, ()))
                + len(self._extra))

    def tags(self) -> Optional[Collection[Any]]:
        """:func:`tags_of` on this inbox: the round index's tags, plus the
        tags of this recipient's own envelopes."""
        traffic = self._traffic
        index = traffic._index
        if index is None:
            return None
        direct = traffic.direct.get(self.recipient)
        if not direct and not self._extra:
            return index.keys()
        held = set(index)
        if _add_plain_tags(direct or (), held) and _add_plain_tags(self._extra, held):
            return held
        return None

    def by_tag(self, tag: Any) -> Pairs:
        """:func:`by_tag` on this inbox."""
        honest = self._traffic.honest_pairs(tag, self.recipient)
        if honest is None:
            return _first_per_sender(_scan(self._envelopes(), tag))
        # Honest and faulty senders are disjoint, so each part dedupes alone.
        out = list(honest[1])
        if self._extra:
            out.extend(_first_per_sender(_scan(self._extra, tag)))
        return out

    def by_tag_all(self, tag: Any) -> Pairs:
        """:func:`by_tag_all` on this inbox."""
        honest = self._traffic.honest_pairs(tag, self.recipient)
        if honest is None:
            return _scan(self._envelopes(), tag)
        out = list(honest[0])
        if self._extra:
            out.extend(_scan(self._extra, tag))
        return out

    def reduce_by_tag(self, tag: Any, reduce: Callable[..., Any],
                      args: tuple) -> Any:
        """:func:`reduce_by_tag` on this inbox: the round's result for
        this view's own pairs -- the first per sender of its ``extra``
        envelopes under ``tag`` -- unless an honest point-to-point
        envelope under ``tag`` makes the view its own."""
        traffic = self._traffic
        direct = traffic.direct.get(self.recipient)
        if not (direct and _scan(direct, tag)):
            own = _first_per_sender(_scan(self._extra, tag)) if self._extra else ()
            result = traffic.reduced(tag, reduce, args, own)
            if result is not _UNSHARED:
                return result
        return reduce(self.by_tag(tag), *args)


def _scan(envelopes: Iterable[Envelope], tag: Any) -> Pairs:
    """``(sender, body)`` of every envelope whose payload tag equals ``tag``."""
    out: Pairs = []
    for env in envelopes:
        env_tag, body = env.parts()
        if env_tag != tag:
            continue
        out.append((env.sender, body))
    return out


def _first_per_sender(pairs: Pairs) -> Pairs:
    seen = set()
    out: Pairs = []
    for pair in pairs:
        if pair[0] not in seen:
            seen.add(pair[0])
            out.append(pair)
    return out


#: Tag parts whose equality a set reproduces exactly (unlike ``True`` and
#: ``1.0``, which equal ``1``, or a subclass that redefines ``__eq__``).
PLAIN_TAG_PARTS = frozenset((str, int))


def _add_plain_tags(envelopes: Iterable[Envelope], held: Set[Any]) -> bool:
    """Add each envelope's tag to ``held``; ``False`` as soon as one is
    not plain: ``None`` (a malformed payload), a ``str``, an ``int`` or a
    tuple of exactly those."""
    for env in envelopes:
        tag = env.parts()[0]
        kind = type(tag)
        if kind is tuple:
            if not PLAIN_TAG_PARTS.issuperset(map(type, tag)):
                return False
        elif not (tag is None or kind is str or kind is int):
            return False
        held.add(tag)
    return True


def tags_of(inbox: Iterable[Envelope]) -> Optional[Collection[Any]]:
    """The tags ``inbox`` holds messages under, or ``None`` when a
    collection cannot answer for them.

    A tag that is not in the answer has no message in ``inbox``:
    :func:`by_tag` on it is empty, so a reader of many tags may skip the
    absent ones.  Membership is exact for a tag whose hash agrees with its
    equality, as every honest tag's does.  The tags of envelopes the
    round index does not cover -- point-to-point, adversary and
    plain-list ones -- count only when plain (see
    :func:`_add_plain_tags`), whose equality a set reproduces; any other
    makes the answer ``None``, and the reader reads every tag.
    """
    if type(inbox) is Inbox:
        return inbox.tags()
    held: Set[Any] = set()
    return held if _add_plain_tags(inbox, held) else None


def tagged(tag: Tuple, body: Any) -> Tuple:
    """Build a tagged payload."""
    return (tag, body)


def by_tag(inbox: Iterable[Envelope], tag: Tuple) -> Pairs:
    """Extract ``(sender, body)`` pairs whose payload tag equals ``tag``.

    At most one message per sender is kept (the first delivered), matching
    the paper's one-message-per-pair-per-round model; this disarms
    Byzantine double-sends.  Readers that need every message a relay sent
    under one tag use :func:`by_tag_all`.
    """
    if type(inbox) is Inbox:
        return inbox.by_tag(tag)
    return _first_per_sender(_scan(inbox, tag))


def by_tag_all(inbox: Iterable[Envelope], tag: Tuple) -> Pairs:
    """Like :func:`by_tag` but keeping *all* messages per sender --
    Dolev-Strong relays may legitimately carry several chains for the same
    instance in one round."""
    if type(inbox) is Inbox:
        return inbox.by_tag_all(tag)
    return _scan(inbox, tag)


def reduce_by_tag(inbox: Iterable[Envelope], tag: Tuple,
                  reduce: Callable[..., Any], *args: Any) -> Any:
    """``reduce(by_tag(inbox, tag), *args)``, shared across the round.

    An inbox that no honest point-to-point envelope under ``tag`` reaches
    sees the round's honest broadcasts under it, then its own pairs: the
    first per sender of its other envelopes under ``tag`` (the
    adversary's, or a ghost's ghost-to-ghost ones).  The result is
    computed once per round per ``(tag, reduce, args)`` and distinct own
    pairs, told apart by sender and body identity, and every inbox with
    that view gets the same object.  Any other inbox, and a plain
    envelope list, computes its own.  Hence the contract:

    * ``reduce`` is a module-level pure function of the pairs and
      ``args`` -- the cache keys on the function object, so a fresh
      lambda or closure per call would never be shared;
    * ``args`` are hashable, and equal ``args`` mean the same result
      (unhashable ``args`` just compute per recipient);
    * the result is read-only: it may be the object other recipients
      hold, so callers never mutate it;
    * adversary code never mutates a payload it emitted until every
      reader of that round has read it (the honest processes, then the
      ghosts in the next adversary step), since a result computed from
      the payload may be reused; :class:`~repro.net.adversary.AdversaryView`
      states the same rule for honest traffic.
    """
    if type(inbox) is Inbox:
        return inbox.reduce_by_tag(tag, reduce, args)
    return reduce(_first_per_sender(_scan(inbox, tag)), *args)


def senders_of(pairs: Sequence[Tuple[int, Any]]) -> List[int]:
    """Return the sender ids of a ``by_tag`` result."""
    return [sender for sender, _ in pairs]
