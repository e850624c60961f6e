(* Struct-of-arrays binary heap: slot [i] is ([prio.(i)], [seq.(i)],
   [vals.(i)]). Priorities sit unboxed in a float array, so once the
   arrays have grown [add] and [pop] allocate nothing. Sifts move a hole
   instead of swapping, writing each displaced slot once. *)
type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for vacant value slots, so a popped value is not kept alive by
   the heap. It is an immediate, which also keeps [vals] an ordinary
   (never flat-float) array: every access goes through this module's
   polymorphic code, which checks the array's tag. *)
let vacant () : 'a = Obj.magic 0

let create () = { prio = [||]; seq = [||]; vals = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let clear q =
  q.prio <- [||];
  q.seq <- [||];
  q.vals <- [||];
  q.size <- 0

let grow q =
  let cap = Array.length q.prio in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let prio = Array.make ncap 0. and seq = Array.make ncap 0 in
  let vals = Array.make ncap (vacant ()) in
  Array.blit q.prio 0 prio 0 q.size;
  Array.blit q.seq 0 seq 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.prio <- prio;
  q.seq <- seq;
  q.vals <- vals

let move q ~src ~dst =
  q.prio.(dst) <- q.prio.(src);
  q.seq.(dst) <- q.seq.(src);
  q.vals.(dst) <- q.vals.(src)

(* The heap order is (priority, insertion sequence): smaller priority
   first, FIFO among equal priorities. *)
let add q ~priority value =
  if q.size = Array.length q.prio then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let i = ref q.size in
  q.size <- q.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = q.prio.(parent) in
    if priority < pp || (priority = pp && s < q.seq.(parent)) then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  q.prio.(!i) <- priority;
  q.seq.(!i) <- s;
  q.vals.(!i) <- value

let min_priority q =
  if q.size = 0 then raise Not_found;
  q.prio.(0)

let pop q =
  if q.size = 0 then raise Not_found;
  let top = q.vals.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    (* sift the last slot down from the hole left at the root *)
    let p = q.prio.(last) and s = q.seq.(last) and v = q.vals.(last) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= last then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && (q.prio.(r) < q.prio.(l)
                || (q.prio.(r) = q.prio.(l) && q.seq.(r) < q.seq.(l)))
          then r
          else l
        in
        let pc = q.prio.(c) in
        if pc < p || (pc = p && q.seq.(c) < s) then begin
          move q ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    q.prio.(!i) <- p;
    q.seq.(!i) <- s;
    q.vals.(!i) <- v
  end;
  q.vals.(last) <- vacant ();
  top

let pop_min q =
  let priority = min_priority q in
  (priority, pop q)

let peek_min q = if q.size = 0 then None else Some (q.prio.(0), q.vals.(0))

let drain q f =
  while not (is_empty q) do
    let priority = min_priority q in
    f priority (pop q)
  done
