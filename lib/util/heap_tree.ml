let children ~fanout ~size i =
  let first = (fanout * i) + 1 in
  let last = min size (first + fanout) in
  List.init (max 0 (last - first)) (fun j -> first + j)

let parent ~fanout i =
  if i <= 0 then invalid_arg "Heap_tree.parent: the root has no parent";
  (i - 1) / fanout
